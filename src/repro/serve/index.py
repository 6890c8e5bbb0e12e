"""Immutable threat-intel read index over one measurement result.

The serving layer never queries live pipeline state: each
:class:`IntelIndex` is built once — from a checkpoint restore, a batch
result or a store-backed out-of-core result — and is read-only
thereafter.  Hot swap (:mod:`repro.serve.app`) replaces the whole index
atomically, so a request observes exactly one generation.

Four point-lookup tables mirror the paper's published intelligence:

* ``hash``      — sample sha256 → record, verdict, campaign attribution
* ``wallet``    — identifier → profit profile + campaign attribution
* ``campaign``  — campaign id → the release-index summary dict
* ``domain``    — domain/IP → infrastructure roles (DNS, hosting,
  CNAME alias, proxy, endpoint) with campaign attributions

Bulk ``scan`` reuses the one-pass :class:`repro.perf.scan.AhoCorasick`
kernel: every known indicator becomes a needle, and a submitted IoC
blob is matched in a single pass regardless of indicator count.
"""

from heapq import nsmallest
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.core.pipeline import iter_result_records
from repro.perf.scan import AhoCorasick
from repro.reporting.dataset_export import campaign_summary

__all__ = ["IntelIndex", "build_index"]

#: lookup kinds in dispatch order (hashes are unambiguous, wallets
#: before domains because identifiers never contain dots).
_KINDS = ("hash", "wallet", "domain")


class IntelIndex:
    """Read-only lookup tables + scan automaton for one generation."""

    __slots__ = ("generation", "source", "_hashes", "_wallets",
                 "_campaigns", "_domains", "_keys", "_automaton")

    def __init__(self, generation: int, source: str,
                 hashes: Dict[str, Dict[str, Any]],
                 wallets: Dict[str, Dict[str, Any]],
                 campaigns: Dict[int, Dict[str, Any]],
                 domains: Dict[str, Dict[str, Any]]) -> None:
        self.generation = generation
        self.source = source
        self._hashes = hashes
        self._wallets = wallets
        self._campaigns = campaigns
        self._domains = domains
        #: needle id -> (kind, indicator); sorted per kind so the
        #: automaton layout is a pure function of the indexed state.
        keys: List[Tuple[str, str]] = []
        keys.extend(("hash", value) for value in sorted(hashes))
        keys.extend(("wallet", value) for value in sorted(wallets))
        keys.extend(("domain", value) for value in sorted(domains))
        self._keys = keys
        self._automaton = AhoCorasick(
            [value.encode("utf-8", "surrogateescape")
             for _, value in keys])

    # -- point lookups -----------------------------------------------------

    def hash_intel(self, sha256: str) -> Optional[Dict[str, Any]]:
        """Intel for one sample hash, or None if unknown."""
        return self._hashes.get(sha256.lower())

    def wallet_intel(self, identifier: str) -> Optional[Dict[str, Any]]:
        """Intel for one wallet/email identifier, or None."""
        return self._wallets.get(identifier)

    def campaign_intel(self, campaign_id: int) -> Optional[Dict[str, Any]]:
        """The release-index summary for one campaign id, or None."""
        return self._campaigns.get(campaign_id)

    def domain_intel(self, name: str) -> Optional[Dict[str, Any]]:
        """Infrastructure intel for one domain or IP, or None."""
        return self._domains.get(name)

    def lookup(self, ioc: str) -> Optional[Dict[str, Any]]:
        """Kind-dispatched point lookup over every table."""
        for kind in _KINDS:
            intel = self._table(kind).get(
                ioc.lower() if kind == "hash" else ioc)
            if intel is not None:
                return {"kind": kind, "indicator": ioc, "intel": intel}
        return None

    def _table(self, kind: str) -> Dict[str, Dict[str, Any]]:
        return {"hash": self._hashes, "wallet": self._wallets,
                "domain": self._domains}[kind]

    # -- bulk scan ---------------------------------------------------------

    def scan_text(self, text: str) -> List[Dict[str, Any]]:
        """Known indicators occurring anywhere in ``text``, one pass.

        Substring semantics (an IoC line containing a known wallet
        fires that wallet), so every submitted IoC that *equals* a
        known indicator is guaranteed to fire.  Results are sorted by
        needle id — (kind, indicator) order — for determinism.
        """
        fired = self._automaton.find(
            text.encode("utf-8", "surrogateescape"))
        hits = []
        for needle_id in sorted(fired):
            kind, indicator = self._keys[needle_id]
            hits.append({"kind": kind, "indicator": indicator})
        return hits

    # -- introspection -----------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Table sizes (also the automaton's needle count)."""
        return {
            "hashes": len(self._hashes),
            "wallets": len(self._wallets),
            "campaigns": len(self._campaigns),
            "domains": len(self._domains),
            "needles": len(self._keys),
        }

    def info(self) -> Dict[str, Any]:
        """Generation metadata + table sizes (the /v1/info payload)."""
        out: Dict[str, Any] = {"generation": self.generation,
                               "source": self.source}
        out.update(self.counts())
        return out

    def examples(self, limit: int = 8) -> Dict[str, List[Any]]:
        """A few indicators per table (smoke and test query seeds).

        ``nsmallest`` instead of a full sort: the hash table is
        corpus-sized.
        """
        return {
            "hashes": nsmallest(limit, self._hashes),
            "wallets": nsmallest(limit, self._wallets),
            "domains": nsmallest(limit, self._domains),
            "campaigns": nsmallest(limit, self._campaigns),
        }


def _url_host(url: str) -> Optional[str]:
    """Hostname of an in-the-wild URL (scheme-less URLs tolerated)."""
    split = urlsplit(url if "//" in url else f"//{url}")
    return split.hostname


def _domain_entry(domains: Dict[str, Dict[str, Any]],
                  name: str) -> Dict[str, Any]:
    return domains.setdefault(name, {
        "indicator": name, "roles": set(), "campaigns": set(),
        "samples": 0})


def _mark(domains: Dict[str, Dict[str, Any]], name: Optional[str],
          role: str, campaign_id: Optional[int]) -> None:
    if not name:
        return
    entry = _domain_entry(domains, name)
    entry["roles"].add(role)
    if campaign_id is not None:
        entry["campaigns"].add(campaign_id)


def build_index(result, generation: int = 1,
                source: str = "") -> IntelIndex:
    """Build the immutable index from one measurement result.

    Accepts both result flavours (in-memory records or a columnar
    store — see :func:`repro.core.pipeline.iter_result_records`).
    Every payload value is JSON-safe; sets accumulated during the build
    are frozen to sorted lists before the index is handed out.
    """
    campaigns: Dict[int, Dict[str, Any]] = {}
    campaign_of_sample: Dict[str, int] = {}
    campaign_of_wallet: Dict[str, int] = {}
    for campaign in result.campaigns:
        campaigns[campaign.campaign_id] = campaign_summary(campaign)
        for sha in campaign.sample_hashes:
            campaign_of_sample[sha] = campaign.campaign_id
        for identifier in campaign.identifiers:
            campaign_of_wallet[identifier] = campaign.campaign_id

    hashes: Dict[str, Dict[str, Any]] = {}
    domains: Dict[str, Dict[str, Any]] = {}
    wallet_samples: Dict[str, int] = {}
    wallet_coin: Dict[str, Optional[str]] = {}
    for record in iter_result_records(result):
        cid = campaign_of_sample.get(record.sha256)
        verdict = result.verdicts.get(record.sha256)
        hashes[record.sha256] = {
            "sha256": record.sha256,
            "type": record.type,
            "is_miner": record.is_miner,
            "campaign_id": cid,
            "pool": record.pool,
            "url_pool": record.url_pool,
            "wallets": sorted(record.identifiers),
            "source": record.source,
            "first_seen": record.first_seen.isoformat()
            if record.first_seen else None,
            "positives": record.positives,
            "packer": record.packer,
            "dst_ip": record.dst_ip,
            "malware": verdict.is_malware if verdict else None,
        }
        coins = dict(zip(record.identifiers, record.identifier_coins))
        for identifier in record.identifiers:
            wallet_samples[identifier] = \
                wallet_samples.get(identifier, 0) + 1
            if wallet_coin.get(identifier) is None:
                wallet_coin[identifier] = coins.get(identifier)
        for rr in record.dns_rr:
            entry = _domain_entry(domains, rr)
            entry["roles"].add("dns")
            entry["samples"] += 1
            if cid is not None:
                entry["campaigns"].add(cid)
        for url in record.itw_urls:
            _mark(domains, _url_host(url), "hosting", cid)
        _mark(domains, record.dst_ip, "endpoint", cid)
        for alias in record.cname_aliases:
            _mark(domains, alias, "cname-alias", cid)

    for campaign in result.campaigns:
        cid = campaign.campaign_id
        for alias in campaign.cname_aliases:
            _mark(domains, alias, "cname-alias", cid)
        for proxy in campaign.proxies:
            _mark(domains, proxy, "proxy", cid)
        for ip in campaign.hosting_ips:
            _mark(domains, ip, "hosting", cid)
        for url in campaign.hosting_urls:
            _mark(domains, _url_host(url), "hosting", cid)
    for entry in domains.values():
        entry["roles"] = sorted(entry["roles"])
        entry["campaigns"] = sorted(entry["campaigns"])

    wallets: Dict[str, Dict[str, Any]] = {}
    for identifier in wallet_samples:
        profile = result.profiles.get(identifier)
        wallets[identifier] = {
            "identifier": identifier,
            "coin": wallet_coin.get(identifier),
            "campaign_id": campaign_of_wallet.get(identifier),
            "samples": wallet_samples[identifier],
            "profiled": profile is not None,
            "total_xmr": round(profile.total_paid, 6) if profile else 0.0,
            "total_usd": round(profile.total_usd, 2) if profile else 0.0,
            "num_payments": profile.num_payments if profile else 0,
            "pools": sorted(set(profile.pools)) if profile else [],
            "last_share": profile.last_share.isoformat()
            if profile and profile.last_share else None,
            "active": profile.active if profile else False,
        }

    return IntelIndex(generation=generation, source=source,
                      hashes=hashes, wallets=wallets,
                      campaigns=campaigns, domains=domains)
