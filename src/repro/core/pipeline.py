"""End-to-end measurement pipeline (Figure 3 of the paper).

Orchestrates: sanity checks -> static/dynamic extraction -> the
illicit-wallet exception sweep -> ancillary recovery -> profit analysis
-> proxy identification -> campaign aggregation -> enrichment.

Per-sample extraction (stages 1 and 2) is independent until
aggregation, so it is sharded over a worker pool when ``workers > 1``
(see :mod:`repro.perf.parallel`); outcomes are merged in sample order,
which keeps parallel results bit-identical to the serial path.  A
:class:`~repro.perf.profiler.PipelineProfiler` times every stage.

The per-record rules — the funnel tally (:meth:`PipelineStats.tally`,
:meth:`PipelineStats.count_kept`), the recovery fixpoint
(:func:`recover_linked`), the proxy rule (:func:`proxy_candidates`,
:func:`proxy_ips`) and the records-to-derived-state step
(:func:`derive_from_records`) — live here once; the scale, ingest and
serve drivers call them instead of keeping copies.
"""

import datetime
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.common.net import is_ipv4_literal
from repro.core.aggregation import (
    Campaign,
    CampaignAggregator,
    GroupingPolicy,
)
from repro.core.dynamic_analysis import DynamicAnalyzer
from repro.core.enrichment import CampaignEnricher
from repro.core.extraction import DEFAULT_ANALYSIS_DATE, ExtractionEngine
from repro.core.profit import ProfitAnalyzer, WalletProfile
from repro.core.records import MinerRecord
from repro.core.sanity import SanityChecker, SanityVerdict
from repro.core.static_analysis import StaticAnalyzer
from repro.corpus.model import SampleRecord, SyntheticWorld
from repro.perf.cache import CachingResolver
from repro.perf.parallel import (
    AnalysisSpec,
    ParallelExtractionEngine,
    SampleOutcome,
)
from repro.perf.profiler import PipelineProfiler
from repro.perf.scan import profiled_scan
from repro.sandbox.emulator import Sandbox, SandboxEnvironment


def build_analysis_components(
        world: SyntheticWorld,
        spec: AnalysisSpec) -> Tuple[SanityChecker, ExtractionEngine]:
    """The per-process sanity checker + extraction engine pair.

    Used both by the pipeline itself and by every pool worker, so a
    worker analyses samples with components identical to the serial
    path.  DNS resolution goes through a shared LRU memo.
    """
    resolver = CachingResolver(world.resolver)
    sandbox = Sandbox(resolver, SandboxEnvironment(
        analysis_date=spec.analysis_date))
    checker = SanityChecker(
        world.vt, world.osint, world.pool_directory,
        tool_whitelist=world.stock_catalog.whitelist_hashes(),
        positives_threshold=spec.positives_threshold,
    )
    engine = ExtractionEngine(
        StaticAnalyzer(),
        DynamicAnalyzer(sandbox, world.ha if spec.use_ha_reports else None),
        world.vt, world.pool_directory,
        resolver, world.passive_dns,
        analysis_date=spec.analysis_date,
    )
    return checker, engine


def linked_hashes(record: MinerRecord, vt) -> Set[str]:
    """Dropper-chain neighbours of one record (§III-E ancestry links):
    its parents, the binaries it dropped, and VT parent-metadata
    children of the sample itself."""
    linked: Set[str] = set(record.parents)
    linked.update(record.dropped)
    linked.update(vt.children_of(record.sha256))
    return linked


def analyze_linked_sample(sample: SampleRecord, engine: ExtractionEngine,
                          index: int = -1) -> SampleOutcome:
    """Admit one dropper-linked executable into the dataset (§III-E).

    The caller has already established executability, malware status and
    the link to an accepted record; this runs the extraction, types the
    record Miner/Ancillary and returns it as a ``recovered`` outcome.
    ``index`` is the sample's feed position, for drivers that journal it.
    """
    record, _report = engine.extract_with_report(sample)
    record.type = "Miner" if record.identifiers else "Ancillary"
    verdict = SanityVerdict(
        sample.sha256, is_executable=True, is_malware=True,
        is_miner=bool(record.identifiers),
        reasons=None if record.identifiers else "ancillary")
    return SampleOutcome(index, sample.sha256, "recovered",
                         verdict=verdict, record=record)


def recover_linked(linked: Iterable[str],
                   admit: Callable[[str], Optional[MinerRecord]],
                   links_of: Callable[[MinerRecord], Iterable[str]]) -> int:
    """Dropper-chain recovery to a fixpoint (§III-E); returns how many
    records it admitted.

    A malware executable that failed the is-miner check still enters
    the dataset as an *ancillary* when it is a parent of an accepted
    sample, or an accepted sample dropped it.  Chains can be several
    hops long (dropper -> loader -> miner), so recovery runs in waves:
    each wave offers every hash in ``linked`` to ``admit`` in sorted
    order, and the next wave follows only ``links_of`` the records this
    wave admitted (frontier-based, never a rescan of every record).

    ``admit(sha)`` is the driver's admission universe and state: it
    returns the newly kept record, or None for a hash that is already
    kept, missing, or not malware.
    """
    recovered = 0
    linked = set(linked)
    while linked:
        admitted = [record for record in map(admit, sorted(linked))
                    if record is not None]
        recovered += len(admitted)
        linked = set()
        for record in admitted:
            linked.update(links_of(record))
    return recovered


def proxy_candidate_ip(record: MinerRecord) -> Optional[str]:
    """The non-pool IPv4 endpoint a record mined against, if any.

    First half of the proxy rule (§III-C); :func:`proxy_ips` applies
    the second half, which needs profit profiles.
    """
    if record.dst_ip is None or record.pool is not None:
        return None
    if record.dst_ip in ("0.0.0.0", "127.0.0.1"):
        return None  # unresolved-host sentinel, not a real endpoint
    if not is_ipv4_literal(record.dst_ip):
        return None
    return record.dst_ip


def proxy_candidates(records: Iterable[MinerRecord]
                     ) -> Iterator[Tuple[str, Tuple[str, ...]]]:
    """``(candidate IP, wallets)`` of every record that could reveal a
    proxy: the compact form :func:`proxy_ips` consumes."""
    for record in records:
        candidate = proxy_candidate_ip(record)
        if candidate is not None and record.identifiers:
            yield candidate, tuple(record.identifiers)


def proxy_ips(candidates: Iterable[Tuple[str, Sequence[str]]],
              profiles: Mapping[str, WalletProfile]) -> Set[str]:
    """Proxy rule (§III-C): a sample mines against a non-pool IP but one
    of its wallets shows activity at a known (transparent) pool.

    ``profiles`` holds only wallets with activity
    (:meth:`~repro.core.profit.ProfitAnalyzer.profile_many`).
    """
    return {candidate for candidate, identifiers in candidates
            if any(identifier in profiles for identifier in identifiers)}


def derive_from_records(records: Iterable[MinerRecord],
                        profit: ProfitAnalyzer,
                        aggregator) -> Tuple[Dict[str, WalletProfile],
                                             Set[str]]:
    """Profiles and proxies of a bare record set, fed with the records
    to ``aggregator``.

    Each identifier is profiled once, in first-seen record order.
    ``aggregator`` is an incremental union-find
    (:class:`repro.ingest.aggregator.IncrementalAggregator`, duck-typed
    to avoid a core -> ingest import).  Everything here is a pure
    function of the records, so a restore or an index build re-derives
    it rather than persisting pool responses.
    """
    records = list(records)
    profiles = profit.profile_many(dict.fromkeys(
        identifier for record in records
        for identifier in record.identifiers))
    proxies = proxy_ips(proxy_candidates(records), profiles)
    for record in records:
        aggregator.add_record(record)
    aggregator.add_proxy_ips(proxies)
    return profiles, proxies


#: funnel counters (Table III) each stage-outcome kind advances.
_OUTCOME_COUNTERS: Dict[str, Tuple[str, ...]] = {
    "nonexec": (),
    "deferred": ("executables",),
    "rejected": ("executables", "malware", "sandbox_analyses"),
    "miner": ("executables", "malware", "sandbox_analyses"),
    "clean": (),
    "exception": ("sandbox_analyses", "binary_analyses",
                  "wallet_exception_hits"),
    "recovered": ("sandbox_analyses",),
}

#: outcome kinds whose record enters the dataset.
KEPT_OUTCOMES = frozenset({"miner", "exception", "recovered"})


@dataclass
class PipelineStats:
    """Bookkeeping for Table III."""

    collected: int = 0
    executables: int = 0
    malware: int = 0
    miners: int = 0
    ancillaries: int = 0
    wallet_exception_hits: int = 0
    by_source: Dict[str, int] = field(default_factory=dict)
    sandbox_analyses: int = 0
    network_analyses: int = 0
    binary_analyses: int = 0

    @property
    def all_executables_kept(self) -> int:
        return self.miners + self.ancillaries

    def tally(self, outcome: SampleOutcome) -> None:
        """Count one stage outcome into the funnel (keyed by its kind);
        a stage-1 analysis also counts its network and binary evidence."""
        for name in _OUTCOME_COUNTERS[outcome.kind]:
            setattr(self, name, getattr(self, name) + 1)
        if outcome.has_network:
            self.network_analyses += 1
        if outcome.used_static:
            self.binary_analyses += 1

    def count_kept(self, record: MinerRecord,
                   sample: Optional[SampleRecord] = None) -> None:
        """Count one record of the final dataset as Miner or Ancillary,
        and toward every feed that carried its ``sample``.

        Feeds overlap (Appendix C): a sample counts toward each feed
        that carries it, so per-source totals can exceed the dataset
        size, exactly like Table III.
        """
        if record.is_miner:
            self.miners += 1
        else:
            self.ancillaries += 1
        for feed in sample.sources if sample is not None else ():
            self.by_source[feed] = self.by_source.get(feed, 0) + 1


@dataclass
class MeasurementResult:
    """Everything the pipeline produced."""

    records: List[MinerRecord]
    campaigns: List[Campaign]
    profiles: Dict[str, WalletProfile]
    verdicts: Dict[str, SanityVerdict]
    stats: PipelineStats
    proxy_ips: Set[str]

    def miner_records(self) -> List[MinerRecord]:
        """Records classified as miners (TYPE == Miner)."""
        return [r for r in self.records if r.is_miner]

    def campaign_for_wallet(self, identifier: str) -> Optional[Campaign]:
        """The campaign holding ``identifier``, or None.

        Backed by a lazily built identifier index; reporting layers
        call this per wallet, which made the old linear scan O(wallets
        x campaigns) on large worlds.
        """
        if not hasattr(self, "_campaign_by_identifier"):
            index: Dict[str, Campaign] = {}
            for campaign in self.campaigns:
                for held in campaign.identifiers:
                    index.setdefault(held, campaign)
            self._campaign_by_identifier = index
        return self._campaign_by_identifier.get(identifier)

    def xmr_campaigns(self) -> List[Campaign]:
        """Campaigns holding at least one Monero identifier."""
        return [c for c in self.campaigns if "XMR" in c.coins]

    def campaigns_with_payments(self) -> List[Campaign]:
        """Campaigns with observed pool payments (total XMR > 0)."""
        return [c for c in self.campaigns if c.total_xmr > 0]


def iter_result_records(result) -> Iterator[MinerRecord]:
    """Stream a result's records without materialising a list.

    Works across both result flavours: a store-backed result
    (:class:`repro.scale.pipeline.ScaleResult`, whose ``records`` is a
    materialising *method*) streams straight from its columnar
    segments; a batch :class:`MeasurementResult` iterates its in-memory
    list.  Exhibit, export and serving layers use this so they never
    force a million-record world into memory just to fold over it.
    """
    store = getattr(result, "store", None)
    if store is not None:
        return store.iter_records()
    return iter(result.records)


class MeasurementPipeline:
    """The full measurement methodology against a (synthetic) world.

    ``workers`` shards stage-1/stage-2 extraction over a process pool;
    ``workers=1`` (the default) runs everything in-process.  Both paths
    produce identical results.  ``profiler`` may be supplied to share
    one across runs; otherwise each pipeline owns one, exposed as
    :attr:`profiler`.
    """

    def __init__(self, world: SyntheticWorld,
                 policy: Optional[GroupingPolicy] = None,
                 positives_threshold: int = 10,
                 analysis_date: datetime.date = DEFAULT_ANALYSIS_DATE,
                 use_ha_reports: bool = True,
                 workers: int = 1,
                 chunk_size: Optional[int] = None,
                 profiler: Optional[PipelineProfiler] = None,
                 record_store=None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.world = world
        self.workers = workers
        #: optional repro.scale.columnar.RecordStore (duck-typed to
        #: avoid a core -> scale import cycle); every run appends the
        #: kept record set as one columnar segment.
        self.record_store = record_store
        self.profiler = profiler or PipelineProfiler()
        self._policy = policy or GroupingPolicy.full()
        self._chunk_size = chunk_size
        self._spec = AnalysisSpec(
            positives_threshold=positives_threshold,
            analysis_date=analysis_date,
            use_ha_reports=use_ha_reports,
        )
        self._checker, self._engine = build_analysis_components(
            world, self._spec)
        self._profit = ProfitAnalyzer(world.pool_directory)

    # ------------------------------------------------------------------

    def run(self) -> MeasurementResult:
        """Execute all pipeline stages; returns the measurement result."""
        with profiled_scan(self.profiler):
            return self._run_stages()

    def _run_stages(self) -> MeasurementResult:
        prof = self.profiler
        vt = self.world.vt
        stats = PipelineStats(collected=len(self.world.samples))
        verdicts: Dict[str, SanityVerdict] = {}
        records: Dict[str, MinerRecord] = {}
        deferred: List[int] = []

        def merge(outcome: SampleOutcome) -> None:
            """Fold one outcome in; outcomes arrive in sample order, so
            pooled runs stay identical to the serial loop."""
            stats.tally(outcome)
            if outcome.kind == "deferred":
                deferred.append(outcome.index)
                return
            verdicts[outcome.sha256] = outcome.verdict
            if outcome.kind == "miner":
                self._checker.confirm_wallets(
                    set(outcome.record.identifiers))
            if outcome.kind in KEPT_OUTCOMES:
                records[outcome.sha256] = outcome.record

        def admit(sha: str) -> Optional[MinerRecord]:
            """Recovery over the whole world: any linked malware
            executable not kept yet."""
            if sha in records:
                return None
            sample = self.world.sample_by_hash(sha)
            if (sample is None
                    or not self._checker.is_executable(sample.raw)
                    or not self._checker.is_malware(sha)):
                return None
            outcome = analyze_linked_sample(sample, self._engine)
            merge(outcome)
            return outcome.record

        with ParallelExtractionEngine(
                self.world, self._spec, workers=self.workers,
                local_components=(self._checker, self._engine),
                chunk_size=self._chunk_size) as engine:
            # -- stage 1: sanity + extraction for confirmed malware -----
            with prof.stage("sanity + extraction",
                            items=len(self.world.samples)):
                for outcome in engine.map_stage1(
                        range(len(self.world.samples))):
                    merge(outcome)

            # -- stage 2: illicit-wallet exception sweep -----------------
            with prof.stage("wallet-exception sweep", items=len(deferred)):
                for outcome in engine.map_stage2(
                        deferred,
                        frozenset(self._checker.confirmed_illicit_wallets)):
                    merge(outcome)

            # -- stage 3: ancillary recovery -----------------------------
            with prof.stage("ancillary recovery"):
                recovered = recover_linked(
                    set().union(*(linked_hashes(record, vt)
                                  for record in records.values())),
                    admit, lambda record: linked_hashes(record, vt))
                if recovered:
                    prof.count("ancillaries_recovered", recovered)

            kept = list(records.values())

            if self.record_store is not None:
                with prof.stage("record store flush", items=len(kept)):
                    self.record_store.append_segment(kept)

            # -- warm the CTPH memo for enrichment (pooled runs) ---------
            if self.workers > 1:
                with prof.stage("fuzzy-hash precompute"):
                    warmed = self._warm_fuzzy_hashes(engine, kept)
                    prof.count("ctph_precomputed", warmed)

        with prof.stage("funnel accounting", items=len(kept)):
            for record in kept:
                stats.count_kept(record,
                                 self.world.sample_by_hash(record.sha256))

        # -- stage 4: profit analysis ------------------------------------
        identifiers = {
            identifier for record in kept
            for identifier in record.identifiers
        }
        with prof.stage("profit analysis", items=len(identifiers)):
            profiles = self._profit.profile_many(sorted(identifiers))

        # -- stage 5: proxy identification --------------------------------
        with prof.stage("proxy identification"):
            proxies = proxy_ips(proxy_candidates(kept), profiles)

        # -- stage 6: aggregation ------------------------------------------
        with prof.stage("aggregation", items=len(kept)):
            aggregator = CampaignAggregator(
                self.world.osint, self._policy, proxy_ips=proxies)
            campaigns = aggregator.aggregate(kept)

        # -- stage 7: enrichment --------------------------------------------
        with prof.stage("enrichment", items=len(campaigns)):
            enricher = CampaignEnricher(
                self.world.vt, self.world.stock_catalog,
                self.world.sample_by_hash,
            )
            enricher.enrich_all(campaigns, profiles)

        return MeasurementResult(
            records=kept,
            campaigns=campaigns,
            profiles=profiles,
            verdicts=verdicts,
            stats=stats,
            proxy_ips=proxies,
        )

    # ------------------------------------------------------------------

    def _warm_fuzzy_hashes(self, engine: ParallelExtractionEngine,
                           kept: List[MinerRecord]) -> int:
        """Fan the enrichment CTPH workload out over the pool.

        Stock-tool attribution hashes the whole catalog plus every
        fuzzy-match candidate; precomputing those digests in the worker
        pool turns the serial enrichment stage into cache hits.
        """
        catalog = self.world.stock_catalog
        size_lo, size_hi = catalog.size_range()
        candidates: Set[str] = set()
        for record in kept:
            candidates.add(record.sha256)
            candidates.update(record.dropped)
            candidates.update(record.parents)
        sample_hashes = []
        for sha in sorted(candidates):
            if catalog.by_hash(sha) is not None:
                continue
            sample = self.world.sample_by_hash(sha)
            if sample is None or not size_lo <= len(sample.raw) <= size_hi:
                continue
            sample_hashes.append(sha)
        return engine.warm_fuzzy_hashes(
            sample_hashes, range(len(catalog.binaries())))
