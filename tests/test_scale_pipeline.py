"""Out-of-core pipeline ≡ batch pipeline, plus record-store routing.

The stream withholds a few fixture-linked campaigns until late in the
feed, so acceptance *order* differs from the batch world order; every
comparison therefore goes through sha-keyed dicts (all downstream
consumers — aggregation, profiling, reporting — are order-canonical).
"""

import dataclasses

import pytest

from repro.core.aggregation import CampaignAggregator
from repro.core.pipeline import MeasurementPipeline
from repro.corpus.model import ScenarioConfig
from repro.ingest import IngestionService
from repro.scale.columnar import RecordStore
from repro.scale.pipeline import ScalePipeline
from repro.scale.stream import StreamingCorpus

_CONFIG = ScenarioConfig(seed=1, scale=0.01)


@pytest.fixture(scope="module")
def scale_result():
    corpus = StreamingCorpus(_CONFIG, chunk_samples=512)
    pipeline = ScalePipeline(corpus, num_shards=8, keep_verdicts=True,
                             keep_campaign_records=True)
    result = pipeline.run()
    yield result
    import shutil
    shutil.rmtree(result.store.root.parent, ignore_errors=True)


class TestScalePipelineEquivalence:
    def test_records_identical(self, scale_result, pipeline_result):
        batch = {r.sha256: r for r in pipeline_result.records}
        stream = {r.sha256: r for r in scale_result.records()}
        assert stream == batch

    def test_funnel_identical(self, scale_result, pipeline_result):
        for f in dataclasses.fields(pipeline_result.stats):
            assert getattr(scale_result.stats, f.name) == \
                getattr(pipeline_result.stats, f.name), f.name

    def test_proxies_profiles_verdicts(self, scale_result,
                                       pipeline_result):
        assert scale_result.proxy_ips == pipeline_result.proxy_ips
        assert scale_result.profiles == pipeline_result.profiles
        assert scale_result.verdicts == pipeline_result.verdicts

    def test_campaigns_identical(self, scale_result, small_world,
                                 pipeline_result):
        # the batch result's campaigns carry post-aggregation
        # enrichment; compare against the bare aggregator output,
        # which is what ScalePipeline's sharded stage replaces
        batch = CampaignAggregator(
            small_world.osint, proxy_ips=pipeline_result.proxy_ips
        ).aggregate(pipeline_result.records)
        assert scale_result.campaigns == batch

    def test_spill_telemetry(self, scale_result):
        assert scale_result.rejected_spilled > 0
        assert scale_result.recovered > 0
        assert scale_result.spill_bytes > 0
        assert scale_result.store.num_segments >= 1


class TestScalePipelineOptions:
    def test_workers_pool_identical(self, scale_result):
        corpus = StreamingCorpus(_CONFIG, chunk_samples=512)
        pooled = ScalePipeline(corpus, workers=2, num_shards=8,
                               keep_verdicts=True,
                               keep_campaign_records=True).run()
        assert {r.sha256: r for r in pooled.records()} == \
            {r.sha256: r for r in scale_result.records()}
        assert pooled.verdicts == scale_result.verdicts
        assert pooled.campaigns == scale_result.campaigns

    def test_prefetch_disabled_identical(self, scale_result):
        """The module fixture runs with the default prefetch (2); the
        eager path must produce byte-identical records, spills and
        campaigns — prefetch changes timing, never content."""
        corpus = StreamingCorpus(_CONFIG, chunk_samples=512)
        eager = ScalePipeline(corpus, prefetch=0, num_shards=8,
                              keep_verdicts=True,
                              keep_campaign_records=True).run()
        assert {r.sha256: r for r in eager.records()} == \
            {r.sha256: r for r in scale_result.records()}
        assert eager.verdicts == scale_result.verdicts
        assert eager.campaigns == scale_result.campaigns
        assert eager.stats == scale_result.stats
        assert eager.deferred_spilled == scale_result.deferred_spilled
        assert eager.rejected_spilled == scale_result.rejected_spilled

    def test_rejects_negative_prefetch(self):
        corpus = StreamingCorpus(_CONFIG, chunk_samples=512)
        with pytest.raises(ValueError):
            ScalePipeline(corpus, prefetch=-1)

    def test_small_segments_identical(self, scale_result):
        corpus = StreamingCorpus(_CONFIG, chunk_samples=512)
        chunked = ScalePipeline(corpus, segment_rows=64,
                                keep_campaign_records=True).run()
        assert chunked.store.num_segments > 1
        assert {r.sha256: r for r in chunked.records()} == \
            {r.sha256: r for r in scale_result.records()}
        assert chunked.campaigns == scale_result.campaigns

    def test_lean_defaults_drop_heavy_state(self, scale_result):
        corpus = StreamingCorpus(_CONFIG, chunk_samples=512)
        lean = ScalePipeline(corpus).run()
        assert lean.verdicts == {}
        assert all(c.records == [] for c in lean.campaigns)
        assert [c.sample_hashes for c in lean.campaigns] == \
            [c.sample_hashes for c in scale_result.campaigns]

    def test_explicit_store_persists(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        corpus = StreamingCorpus(_CONFIG, chunk_samples=512)
        result = ScalePipeline(corpus, store=store).run()
        assert result.store is store
        assert store.num_segments >= 1
        assert len(store) == result.stats.all_executables_kept


class TestRecordStoreRouting:
    def test_batch_pipeline_flushes_kept_records(self, small_world,
                                                 tmp_path):
        store = RecordStore(tmp_path / "store")
        result = MeasurementPipeline(small_world,
                                     record_store=store).run()
        assert store.num_segments == 1
        assert {r.sha256: r for r in store.iter_records()} == \
            {r.sha256: r for r in result.records}

    def test_ingest_writes_batch_aligned_segments(self, small_world,
                                                  tmp_path):
        store = RecordStore(tmp_path / "store")
        service = IngestionService(small_world,
                                   tmp_path / "checkpoint",
                                   batch_days=120, record_store=store)
        ingest = service.run()
        assert store.num_segments > 1
        assert {sha for r in store.iter_records()
                for sha in [r.sha256]} == \
            {r.sha256 for r in ingest.result.records}

    def test_ingest_skips_existing_segments(self, small_world,
                                            tmp_path):
        """Crash-replay safety: a segment written before the commit is
        not rewritten (and does not crash) when the batch re-runs."""
        store = RecordStore(tmp_path / "store")
        probe = IngestionService(small_world, tmp_path / "probe",
                                 batch_days=120, record_store=store)
        probe.run()
        first = store.segment_paths()[0]
        stamp = first.stat().st_mtime_ns
        # re-ingesting into the same store must skip every existing
        # segment instead of raising FileExistsError
        again = IngestionService(small_world, tmp_path / "checkpoint",
                                 batch_days=120, record_store=store)
        again.run()
        assert first.stat().st_mtime_ns == stamp

