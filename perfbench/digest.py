"""Output digests and the correctness checks every run applies.

A digest condenses what a workload produced into a small JSON-safe
dict: the sample funnel, the campaign partition and the headline
XMR/USD for the batch workloads; found/not-found and the campaign id
of every planned query for ``serve``.  For the benchmark's default
seed the digest must equal the one pinned in ``reference.json``; on
every other seed only the seed-independent invariants apply.
"""

import hashlib
import json
import os
from typing import Any, Dict, Iterable, List, Optional

__all__ = ["DEFAULT_SEED", "batch_digest", "check_reference",
           "digest_id", "funnel_problems", "quality_problems",
           "serve_digest"]

#: the seed whose digests are pinned in reference.json.
DEFAULT_SEED = 2019

#: aggregation precision/recall floor against ground truth (the
#: batch pipeline's own test gate uses the same floor).
MIN_QUALITY = 0.95

_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "reference.json")


def digest_id(payload: Any) -> str:
    """sha256 of the canonical JSON of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _partition(campaigns: Iterable) -> str:
    groups = sorted(sorted(c.sample_hashes) for c in campaigns)
    return digest_id(groups)


def batch_digest(stats, campaigns: List, profiles: Dict) -> Dict[str, Any]:
    """Funnel counts, campaign partition and headline XMR/USD."""
    return {
        "collected": stats.collected,
        "executables": stats.executables,
        "malware": stats.malware,
        "miners": stats.miners,
        "ancillaries": stats.ancillaries,
        "campaigns": len(campaigns),
        "partition": _partition(campaigns),
        "xmr": round(sum(p.total_paid for p in profiles.values()), 6),
        "usd": round(sum(p.total_usd for p in profiles.values()), 2),
    }


def serve_digest(answers: Dict[str, Any]) -> Dict[str, Any]:
    """Digest of ``{query key: [found, campaign id]}`` for every
    planned query."""
    found = sum(1 for value in answers.values() if value[0])
    return {"queries": len(answers), "found": found,
            "answers": digest_id(sorted(answers.items()))}


def funnel_problems(stats, kept: int) -> List[str]:
    """Seed-independent funnel invariants."""
    problems = []
    if not (stats.collected >= stats.executables >= stats.malware
            >= stats.miners > 0):
        problems.append("funnel is not monotone")
    if stats.miners + stats.ancillaries != kept:
        problems.append(f"miners + ancillaries != {kept} kept records")
    return problems


def quality_problems(scores) -> List[str]:
    """Aggregation precision/recall against ground truth."""
    if scores.precision < MIN_QUALITY or scores.recall < MIN_QUALITY:
        return [f"aggregation P={scores.precision:.3f} "
                f"R={scores.recall:.3f} below {MIN_QUALITY}"]
    return []


def _load_reference() -> Dict[str, Any]:
    try:
        with open(_REFERENCE, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def check_reference(workload: str, seed: int, digest: Dict[str, Any],
                    reference: Optional[Dict[str, Any]] = None
                    ) -> List[str]:
    """Compare against the pinned digest (default seed only)."""
    if seed != DEFAULT_SEED:
        return []
    pinned = (reference if reference is not None
              else _load_reference()).get(workload)
    if pinned is None:
        return [f"no pinned reference digest for {workload}"]
    if pinned != digest:
        diff = sorted(k for k in set(pinned) | set(digest)
                      if pinned.get(k) != digest.get(k))
        return [f"digest differs from reference in {', '.join(diff)}"]
    return []
