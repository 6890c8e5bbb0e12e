"""The measurement pipeline over a streamed corpus: flat-RSS stage 1/2.

:class:`ScalePipeline` re-runs the exact methodology of
:class:`~repro.core.pipeline.MeasurementPipeline` — same per-sample
stage functions (:func:`~repro.perf.parallel.stage1_analyze`,
:func:`~repro.perf.parallel.stage2_sweep`), same recovery fixpoint,
same proxy rule, same aggregation edges — but consumes
:class:`~repro.scale.stream.StreamingCorpus` chunks instead of a
materialised world, and parks everything that must outlive a chunk
either on disk or in compact per-sample scalars:

* accepted records   -> columnar :class:`~repro.scale.columnar.RecordStore`
  segments (flushed every ``segment_rows`` acceptances);
* deferred samples   -> a pickle spill, replayed for the stage-2
  wallet-exception sweep once the confirmed-wallet set is final
  (exactly the batch ordering: all of stage 1, then stage 2);
* rejected malware   -> a second spill, the *complete* admission
  universe of ancillary recovery (a recovered sample must pass
  ``is_executable`` and ``is_malware`` and not already be kept — at
  stage 1 that is precisely the ``rejected`` outcome, so spilling
  anything else would be waste);
* dropper links      -> an in-memory reverse-parents index replacing
  ``vt.children_of``'s linear scan over all reports.

What stays resident is O(samples) only in small constants — the
accepted/seen hash sets, spill offsets, link sets, per-feed counters —
about 100–150 bytes per sample against the batch pipeline's ~10 KB of
live ``SampleRecord``/report objects.  The measured scaling curve lives
in ``BENCH_scale.json``; the layout rationale in
``docs/performance.md``.

Campaign enrichment (stock-tool attribution, packer hist) needs sample
bodies and the full VT corpus, so the scale path stops after
aggregation + profit — the equivalence suite therefore compares against
the batch pipeline's *pre-enrichment* outputs, which are bit-identical.
"""

import datetime
import pickle
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.aggregation import Campaign, GroupingPolicy
from repro.core.extraction import DEFAULT_ANALYSIS_DATE
from repro.core.pipeline import (
    KEPT_OUTCOMES,
    PipelineStats,
    analyze_linked_sample,
    build_analysis_components,
    linked_hashes,
    proxy_candidates,
    proxy_ips,
    recover_linked,
)
from repro.core.profit import ProfitAnalyzer, WalletProfile
from repro.core.records import MinerRecord
from repro.core.sanity import SanityVerdict
from repro.corpus.model import SampleRecord, SyntheticWorld
from repro.perf.parallel import (
    AnalysisSpec,
    ParallelExtractionEngine,
    SampleOutcome,
    stage1_analyze,
    stage2_sweep,
)
from repro.scale.columnar import RecordStore
from repro.scale.shards import ShardedCampaignAggregator
from repro.scale.stream import ChunkPrefetcher, StreamingCorpus

__all__ = ["ScalePipeline", "ScaleResult"]

#: spill payload: the sample plus the intel its chunk carried for it.
_SpillEntry = Tuple[SampleRecord, object, object]


class _IntelView:
    """A VT/HA stand-in whose report map is swapped per chunk.

    The sanity checker and extraction engine only ever call
    ``get_report`` (asserted by the whole-program lint's call graph), so
    this is the entire surface the persistent engine needs.
    """

    def __init__(self) -> None:
        self._reports: Dict[str, object] = {}

    def swap(self, reports: Dict[str, object]) -> None:
        self._reports = reports

    def get_report(self, sha256: str):
        return self._reports.get(sha256)


class _Spill:
    """Append-only pickle spill with an in-memory sha -> offset index.

    Iteration replays entries in insertion order, which is what keeps
    the stage-2 sweep identical to the batch pipeline's deferred-list
    order.  ~56 bytes of RSS per spilled sample; bodies live on disk.
    """

    def __init__(self, path: Path) -> None:
        self._path = Path(path)
        self._handle = open(self._path, "wb+")
        self._offsets: Dict[str, int] = {}

    def put(self, sha256: str, entry: _SpillEntry) -> None:
        self._handle.seek(0, 2)
        self._offsets[sha256] = self._handle.tell()
        pickle.dump(entry, self._handle, protocol=pickle.HIGHEST_PROTOCOL)

    def get(self, sha256: str) -> Optional[_SpillEntry]:
        offset = self._offsets.get(sha256)
        if offset is None:
            return None
        self._handle.seek(offset)
        return pickle.load(self._handle)

    def __contains__(self, sha256: str) -> bool:
        return sha256 in self._offsets

    def __len__(self) -> int:
        return len(self._offsets)

    def items(self) -> Iterator[Tuple[str, _SpillEntry]]:
        """(sha, entry) pairs in insertion order."""
        for sha in list(self._offsets):
            yield sha, self.get(sha)

    def bytes_written(self) -> int:
        self._handle.seek(0, 2)
        return self._handle.tell()

    def close(self) -> None:
        self._handle.close()


@dataclass
class ScaleResult:
    """What the out-of-core pipeline produces.

    ``store`` replaces the batch result's in-memory record list;
    :meth:`records` materialises it (tier-1 equivalence tests only —
    defeats the point at the million scale).
    """

    store: RecordStore
    campaigns: List[Campaign]
    profiles: Dict[str, WalletProfile]
    stats: PipelineStats
    proxy_ips: Set[str]
    verdicts: Dict[str, SanityVerdict] = field(default_factory=dict)
    #: observability for the scaling bench
    deferred_spilled: int = 0
    rejected_spilled: int = 0
    recovered: int = 0
    spill_bytes: int = 0

    def records(self) -> List[MinerRecord]:
        """Materialise every stored record (small worlds only)."""
        return list(self.store.iter_records())


class ScalePipeline:
    """Chunked, disk-backed run of the measurement methodology.

    ``workers > 1`` fans each chunk's stage-1/stage-2 maps over a
    short-lived fork pool built around a chunk-local world view —
    results stay bit-identical because outcomes merge in sample order
    either way — and runs the independent per-shard aggregation passes
    on the same-width fork pool.  ``prefetch`` (default 2) generates
    the next corpus chunks on a background thread while the current one
    is analysed (:class:`~repro.scale.stream.ChunkPrefetcher`); chunks
    are consumed in generation order, so the stage-1-then-stage-2
    ordering and every spill is byte-identical to the eager path —
    ``prefetch=0`` disables the overlap entirely.
    ``keep_verdicts=False`` (the default) drops the per-sample verdict
    map, the one remaining O(samples) structure with a non-trivial
    constant.
    """

    def __init__(self, corpus: StreamingCorpus,
                 store: Optional[RecordStore] = None,
                 workdir: Optional[Path] = None,
                 policy: Optional[GroupingPolicy] = None,
                 positives_threshold: int = 10,
                 analysis_date: datetime.date = DEFAULT_ANALYSIS_DATE,
                 use_ha_reports: bool = True,
                 workers: int = 1,
                 num_shards: int = 8,
                 segment_rows: int = 8192,
                 prefetch: int = 2,
                 keep_verdicts: bool = False,
                 keep_campaign_records: bool = False) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if prefetch < 0:
            raise ValueError("prefetch must be >= 0")
        self.corpus = corpus
        self.workers = workers
        self.prefetch = prefetch
        self._policy = policy or GroupingPolicy.full()
        self._spec = AnalysisSpec(
            positives_threshold=positives_threshold,
            analysis_date=analysis_date,
            use_ha_reports=use_ha_reports,
        )
        self._num_shards = num_shards
        self._segment_rows = segment_rows
        self._keep_verdicts = keep_verdicts
        self._keep_campaign_records = keep_campaign_records
        self._own_workdir = workdir is None
        self._workdir = Path(workdir or tempfile.mkdtemp(prefix="repro-scale-"))
        self._workdir.mkdir(parents=True, exist_ok=True)
        # `store or ...` would discard a caller's *empty* store
        # (RecordStore defines __len__, so an empty one is falsy)
        self.store = (store if store is not None
                      else RecordStore(self._workdir / "store"))
        # persistent serial components over swappable chunk intel views
        self._vt_view = _IntelView()
        self._ha_view = _IntelView()
        self._checker, self._engine = build_analysis_components(
            self._skeleton_world(), self._spec)
        self._profit = ProfitAnalyzer(corpus.pool_directory)
        # O(1)-per-sample resident state
        self._confirmed_wallets: Set[str] = set()
        self._accepted: Set[str] = set()
        self._identifiers: Set[str] = set()
        self._accum_links: Set[str] = set()
        self._reverse_parents: Dict[str, List[str]] = {}
        self._proxy_candidates: List[Tuple[str, Tuple[str, ...]]] = []
        self._buffer: List[MinerRecord] = []
        self._segment_counter = 0
        self._recovered = 0
        #: the stage-1 prefetcher while it is live — chunk engines fork
        #: inside its quiesce window (FORK001).
        self._active_prefetcher: Optional[ChunkPrefetcher] = None

    # -- world facades -----------------------------------------------------

    def _skeleton_world(self, samples: Optional[List[SampleRecord]] = None,
                        vt=None, ha=None) -> SyntheticWorld:
        """A SyntheticWorld shell over skeleton services + chunk intel."""
        corpus = self.corpus
        return SyntheticWorld(
            config=corpus.config,
            samples=samples or [],
            vt=vt if vt is not None else self._vt_view,
            ha=ha if ha is not None else self._ha_view,
            dns_zone=corpus.dns_zone,
            resolver=corpus.resolver,
            passive_dns=corpus.passive_dns,
            pool_directory=corpus.pool_directory,
            osint=corpus.osint,
            stock_catalog=corpus.stock_catalog,
            ground_truth=[],
        )

    def _chunk_engine(self, samples: List[SampleRecord],
                      reports: Dict[str, object],
                      ha_reports: Dict[str, object]
                      ) -> ParallelExtractionEngine:
        """A pooled engine whose workers see only this chunk."""
        vt, ha = _IntelView(), _IntelView()
        vt.swap(reports)
        ha.swap(ha_reports)
        world = self._skeleton_world(samples, vt=vt, ha=ha)
        # while the prefetcher thread is live, every fork must happen
        # inside its quiesce window: a forked child inherits the chunk
        # queue's lock in whatever state the producer left it.
        barrier = (self._active_prefetcher.quiesced
                   if self._active_prefetcher is not None else None)
        return ParallelExtractionEngine(world, self._spec,
                                        workers=self.workers,
                                        fork_barrier=barrier)

    # -- acceptance bookkeeping --------------------------------------------

    def _merge(self, outcome: SampleOutcome, sample: SampleRecord,
               stats: PipelineStats,
               verdicts: Dict[str, SanityVerdict]) -> None:
        """Fold one analysed outcome in (deferred/rejected spills are the
        caller's: they need the chunk's intel)."""
        stats.tally(outcome)
        if self._keep_verdicts and outcome.kind != "deferred":
            verdicts[outcome.sha256] = outcome.verdict
        if outcome.kind in KEPT_OUTCOMES:
            self._accept(outcome.record, sample, stats)

    def _accept(self, record: MinerRecord, sample: SampleRecord,
                stats: PipelineStats) -> None:
        self._accepted.add(record.sha256)
        self._identifiers.update(record.identifiers)
        self._accum_links.update(record.parents)
        self._accum_links.update(record.dropped)
        self._proxy_candidates.extend(proxy_candidates((record,)))
        # the batch funnel counts these over the final kept set; a
        # record's type never changes after acceptance, so counting at
        # acceptance is the same sum.
        stats.count_kept(record, sample)
        self._buffer.append(record)
        if len(self._buffer) >= self._segment_rows:
            self._flush_segment()

    def _flush_segment(self) -> None:
        if not self._buffer:
            return
        self.store.append_segment(self._buffer,
                                  name=f"{self._segment_counter:06d}")
        self._segment_counter += 1
        self._buffer = []

    def _index_parents(self, reports: Dict[str, object]) -> None:
        """Feed :meth:`children_of` from one chunk's reports."""
        for sha, report in reports.items():
            for parent in report.parents:
                self._reverse_parents.setdefault(parent, []).append(sha)

    def children_of(self, sha256: str) -> List[str]:
        """Incremental replacement for ``vt.children_of``'s full scan."""
        return self._reverse_parents.get(sha256, [])

    # -- stages ------------------------------------------------------------

    def run(self) -> ScaleResult:
        """Stream the corpus through all measurement stages."""
        stats = PipelineStats()
        verdicts: Dict[str, SanityVerdict] = {}
        deferred = _Spill(self._workdir / "deferred.spill")
        rejected = _Spill(self._workdir / "rejected.spill")
        try:
            self._stage1(stats, verdicts, deferred, rejected)
            self._stage2(stats, verdicts, deferred)
            self._recover(stats, verdicts, rejected)
            self._flush_segment()

            identifiers = sorted(self._identifiers)
            profiles = self._profit.profile_many(identifiers)
            proxies = proxy_ips(self._proxy_candidates, profiles)
            aggregator = ShardedCampaignAggregator(
                self.corpus.osint, self._policy, proxy_ips=proxies,
                num_shards=self._num_shards,
                keep_records=self._keep_campaign_records,
                workers=self.workers)
            campaigns = aggregator.aggregate_source(self.store.iter_records)

            return ScaleResult(
                store=self.store,
                campaigns=campaigns,
                profiles=profiles,
                stats=stats,
                proxy_ips=proxies,
                verdicts=verdicts,
                deferred_spilled=len(deferred),
                rejected_spilled=len(rejected),
                recovered=self._recovered,
                spill_bytes=deferred.bytes_written()
                + rejected.bytes_written(),
            )
        finally:
            deferred.close()
            rejected.close()
            for name in ("deferred.spill", "rejected.spill"):
                spill_path = self._workdir / name
                if spill_path.exists():
                    spill_path.unlink()
            if (self._own_workdir
                    and self.store.root != self._workdir / "store"):
                # caller supplied the store; nothing of theirs lives here
                shutil.rmtree(self._workdir, ignore_errors=True)

    def _chunk_stream(self):
        """The corpus chunk iterator, prefetched when configured."""
        chunks = self.corpus.chunks()
        if self.prefetch > 0:
            return ChunkPrefetcher(chunks, depth=self.prefetch)
        return chunks

    def _stage1(self, stats: PipelineStats,
                verdicts: Dict[str, SanityVerdict],
                deferred: _Spill, rejected: _Spill) -> None:
        index = 0
        chunks = self._chunk_stream()
        if isinstance(chunks, ChunkPrefetcher):
            self._active_prefetcher = chunks
        try:
            for chunk in chunks:
                index = self._stage1_chunk(chunk, index, stats, verdicts,
                                           deferred, rejected)
        finally:
            self._active_prefetcher = None
            if isinstance(chunks, ChunkPrefetcher):
                chunks.close()

    def _stage1_chunk(self, chunk, index: int, stats: PipelineStats,
                      verdicts: Dict[str, SanityVerdict],
                      deferred: _Spill, rejected: _Spill) -> int:
        """Stage-1 analysis of one chunk; returns the next sample index."""
        stats.collected += len(chunk.samples)
        self._index_parents(chunk.reports)
        if self.workers == 1:
            self._vt_view.swap(chunk.reports)
            self._ha_view.swap(chunk.ha_reports)
            outcomes = [
                stage1_analyze(sample, index + i,
                               self._checker, self._engine)
                for i, sample in enumerate(chunk.samples)]
        else:
            with self._chunk_engine(chunk.samples, chunk.reports,
                                    chunk.ha_reports) as engine:
                outcomes = engine.map_stage1(
                    range(len(chunk.samples)))
                for outcome in outcomes:
                    outcome.index += index
        for sample, outcome in zip(chunk.samples, outcomes):
            sha = outcome.sha256
            if outcome.kind in ("deferred", "rejected"):
                spill = deferred if outcome.kind == "deferred" else rejected
                spill.put(sha, (sample, chunk.reports[sha],
                                chunk.ha_reports.get(sha)))
            elif outcome.kind == "miner":
                self._confirmed_wallets.update(outcome.record.identifiers)
            self._merge(outcome, sample, stats, verdicts)
        return index + len(chunk.samples)

    def _stage2(self, stats: PipelineStats,
                verdicts: Dict[str, SanityVerdict],
                deferred: _Spill) -> None:
        confirmed = frozenset(self._confirmed_wallets)
        batch: List[_SpillEntry] = []

        def sweep(entries: List[_SpillEntry]) -> None:
            samples = [entry[0] for entry in entries]
            reports = {entry[0].sha256: entry[1] for entry in entries}
            ha_reports = {entry[0].sha256: entry[2] for entry in entries
                          if entry[2] is not None}
            if self.workers == 1:
                self._vt_view.swap(reports)
                self._ha_view.swap(ha_reports)
                outcomes = [stage2_sweep(sample, i, confirmed, self._engine)
                            for i, sample in enumerate(samples)]
            else:
                with self._chunk_engine(samples, reports,
                                        ha_reports) as engine:
                    outcomes = engine.map_stage2(
                        range(len(samples)), confirmed)
            for sample, outcome in zip(samples, outcomes):
                self._merge(outcome, sample, stats, verdicts)

        for _sha, entry in deferred.items():
            batch.append(entry)
            if len(batch) >= self.corpus.chunk_samples:
                sweep(batch)
                batch = []
        if batch:
            sweep(batch)

    def _recover(self, stats: PipelineStats,
                 verdicts: Dict[str, SanityVerdict],
                 rejected: _Spill) -> None:
        """Ancillary recovery against the rejected-malware spill.

        The batch fixpoint admits a linked sample iff it exists, is
        executable, and is malware — at stage 1 exactly the ``rejected``
        outcome — so the spill IS the admission universe and the
        executable/malware re-checks are implied by membership.
        """
        linked: Set[str] = set(self._accum_links)
        for sha in self._accepted:
            linked.update(self.children_of(sha))

        def admit(sha: str) -> Optional[MinerRecord]:
            entry = None if sha in self._accepted else rejected.get(sha)
            if entry is None:
                return None
            sample, report, ha_report = entry
            self._vt_view.swap({sha: report})
            self._ha_view.swap(
                {sha: ha_report} if ha_report is not None else {})
            outcome = analyze_linked_sample(sample, self._engine)
            self._merge(outcome, sample, stats, verdicts)
            return outcome.record

        self._recovered += recover_linked(
            linked, admit, lambda record: linked_hashes(record, self))
