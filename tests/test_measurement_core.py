"""The measurement core's shared rules, and every driver agreeing on them.

Batch, stream (out-of-core), ingest and the two serve derivations all
call the same funnel tally, recovery fixpoint, wallet profiling and
proxy rule from :mod:`repro.core.pipeline`; these tests pin each rule
on its own, then check that the shared fixture world exercises every
rule and that all five paths find the same proxies on it.
"""

import dataclasses
import shutil

import pytest

from repro.core.pipeline import (
    PipelineStats,
    derive_from_records,
    proxy_candidates,
    proxy_ips,
    recover_linked,
)
from repro.core.profit import WalletProfile
from repro.core.records import MinerRecord, WalletRecord
from repro.corpus.model import ScenarioConfig
from repro.ingest import IngestionService
from repro.perf.parallel import SampleOutcome
from repro.scale.pipeline import ScalePipeline
from repro.scale.stream import StreamingCorpus
from repro.serve.snapshot import derive_result_from_records, result_from_store

# -- funnel tally --------------------------------------------------------

#: (kind, has_network, used_static) -> the counters it must advance;
#: every other PipelineStats field must stay at its default.
_TALLY_ROWS = [
    ("nonexec", False, False, {}),
    ("deferred", False, False, {"executables": 1}),
    ("rejected", True, False,
     {"executables": 1, "malware": 1, "sandbox_analyses": 1,
      "network_analyses": 1}),
    ("miner", True, True,
     {"executables": 1, "malware": 1, "sandbox_analyses": 1,
      "network_analyses": 1, "binary_analyses": 1}),
    ("miner", False, False,
     {"executables": 1, "malware": 1, "sandbox_analyses": 1}),
    ("clean", False, False, {}),
    ("exception", False, False,
     {"sandbox_analyses": 1, "binary_analyses": 1,
      "wallet_exception_hits": 1}),
    ("recovered", False, False, {"sandbox_analyses": 1}),
]


class TestTally:
    @pytest.mark.parametrize("kind,has_network,used_static,expected",
                             _TALLY_ROWS)
    def test_every_field(self, kind, has_network, used_static, expected):
        stats = PipelineStats()
        stats.tally(SampleOutcome(0, "a" * 64, kind,
                                  has_network=has_network,
                                  used_static=used_static))
        default = PipelineStats()
        for f in dataclasses.fields(PipelineStats):
            want = expected.get(f.name, getattr(default, f.name))
            assert getattr(stats, f.name) == want, f.name

    def test_unknown_kind_is_an_error(self):
        with pytest.raises(KeyError):
            PipelineStats().tally(SampleOutcome(0, "a" * 64, "bogus"))

    def test_count_kept(self, small_world):
        sample = next(s for s in small_world.samples if len(s.sources) > 1)
        stats = PipelineStats()
        stats.count_kept(MinerRecord(sha256=sample.sha256), sample)
        stats.count_kept(MinerRecord(sha256="b" * 64, type="Ancillary"))
        assert (stats.miners, stats.ancillaries) == (1, 1)
        assert stats.by_source == {feed: 1 for feed in sample.sources}


# -- recovery fixpoint ---------------------------------------------------


class TestRecoverLinked:
    def test_synthetic_chain(self):
        # k0 is kept; a -> b -> {c, d} are three hops; c links back to
        # a (a cycle), b and k0 link to the missing sample m, and a
        # links back to the already-kept k0.
        links = {"k0": {"a", "m"}, "a": {"b", "k0"}, "b": {"c", "d", "m"},
                 "c": {"a"}, "d": set()}
        universe = {"a", "b", "c", "d"}
        kept = {"k0"}
        offered, admitted = [], []

        def admit(sha):
            offered.append(sha)
            if sha in kept or sha not in universe:
                return None
            kept.add(sha)
            admitted.append(sha)
            return MinerRecord(sha256=sha)

        recovered = recover_linked(links["k0"], admit,
                                   lambda record: links[record.sha256])
        assert recovered == 4
        assert admitted == ["a", "b", "c", "d"]
        # wave by wave, each wave in sorted order
        assert offered == ["a", "m", "b", "k0", "c", "d", "m", "a"]

    def test_empty_linked_set_admits_nothing(self):
        assert recover_linked(set(), lambda sha: 1 / 0, lambda r: ()) == 0


# -- proxy rule ----------------------------------------------------------


def _hit(identifier):
    return WalletProfile(identifier, [WalletRecord(pool="p", user=identifier,
                                                   total_paid=1.0)])


class TestProxyRule:
    def test_second_half_needs_pool_activity(self):
        records = [
            MinerRecord("1" * 64, dst_ip="203.0.113.5",
                        identifiers=["active"]),
            MinerRecord("2" * 64, dst_ip="203.0.113.6",
                        identifiers=["idle"]),
            MinerRecord("3" * 64, dst_ip="203.0.113.7", identifiers=[]),
        ]
        profiles = {"active": _hit("active")}
        assert proxy_ips(proxy_candidates(records), profiles) \
            == {"203.0.113.5"}

    @pytest.mark.parametrize("dst_ip,pool", [
        ("198.51.100.7", "minexmr"),   # a known pool, not a proxy
        ("0.0.0.0", None),             # unresolved-host sentinels
        ("127.0.0.1", None),
        ("pool.example.com", None),    # not an IPv4 literal
        (None, None),
    ])
    def test_pool_or_sentinel_destination_never_a_proxy(self, dst_ip, pool):
        record = MinerRecord("4" * 64, dst_ip=dst_ip, pool=pool,
                             identifiers=["active"])
        assert list(proxy_candidates([record])) == []
        assert proxy_ips(proxy_candidates([record]),
                         {"active": _hit("active")}) == set()

    def test_compact_pairs(self):
        pairs = [("203.0.113.5", ("idle", "active")),
                 ("203.0.113.6", ("idle",))]
        assert proxy_ips(pairs, {"active": _hit("active")}) \
            == {"203.0.113.5"}


class _RecordingProfit:
    """profile_many stand-in: every identifier starting 'w' is a hit."""

    def __init__(self):
        self.asked = []

    def profile_many(self, identifiers):
        self.asked = list(identifiers)
        return {i: _hit(i) for i in self.asked if i.startswith("w")}


class _RecordingAggregator:
    def __init__(self):
        self.calls = []

    def add_record(self, record):
        self.calls.append(("record", record.sha256))

    def add_proxy_ips(self, ips):
        self.calls.append(("proxies", set(ips)))


def test_derive_from_records_order():
    records = [
        MinerRecord("1" * 64, identifiers=["w2", "x1"]),
        MinerRecord("2" * 64, dst_ip="203.0.113.9",
                    identifiers=["x1", "w1", "w2"]),
    ]
    profit, agg = _RecordingProfit(), _RecordingAggregator()
    profiles, proxies = derive_from_records(iter(records), profit, agg)
    assert profit.asked == ["w2", "x1", "w1"]      # once, first-seen order
    assert list(profiles) == ["w2", "w1"]
    assert proxies == {"203.0.113.9"}
    assert agg.calls == [("record", "1" * 64), ("record", "2" * 64),
                         ("proxies", {"203.0.113.9"})]


# -- every driver on the shared fixture world ----------------------------


@pytest.fixture(scope="module")
def stream_result():
    corpus = StreamingCorpus(ScenarioConfig(seed=1, scale=0.01),
                             chunk_samples=1024)
    result = ScalePipeline(corpus).run()
    yield result
    shutil.rmtree(result.store.root.parent, ignore_errors=True)


class TestDriversAgree:
    def test_fixture_world_exercises_every_rule(self, pipeline_result):
        stats = pipeline_result.stats
        assert pipeline_result.proxy_ips, \
            "fixture world has no proxy: the proxy rule goes untested"
        assert stats.wallet_exception_hits >= 1, \
            "fixture world has no wallet-exception hit"
        # only recovery admits Ancillary records
        assert stats.ancillaries >= 1, \
            "fixture world has no recovered ancillary"

    def test_same_proxies_everywhere(self, small_world, pipeline_result,
                                     stream_result, tmp_path):
        expected = pipeline_result.proxy_ips
        ingest = IngestionService(small_world, tmp_path / "ck",
                                  batch_days=90, fsync=False).run()
        derived = derive_result_from_records(small_world,
                                             pipeline_result.records)
        stored = result_from_store(small_world, stream_result.store)
        assert stream_result.proxy_ips == expected
        assert ingest.result.proxy_ips == expected
        assert derived.proxy_ips == expected
        assert stored.proxy_ips == expected

    def test_profiles_in_identifier_order_everywhere(
            self, small_world, pipeline_result, stream_result, tmp_path):
        ingest = IngestionService(small_world, tmp_path / "ck",
                                  batch_days=90, fsync=False).run()
        derived = derive_result_from_records(
            small_world, reversed(pipeline_result.records))
        stored = result_from_store(small_world, stream_result.store)
        order = sorted(pipeline_result.profiles)
        for result in (pipeline_result, stream_result, ingest.result,
                       derived, stored):
            assert list(result.profiles) == order
