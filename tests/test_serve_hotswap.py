"""Cold start from checkpoints and lock-free hot swap.

Scenario under test (the ISSUE acceptance): build an index from a
checkpoint mid-ingestion, let ingestion commit more batches, poll →
the watcher rebuilds and swaps; a request in flight on the old
generation completes consistently on its original index while new
requests already see the new one, and the old generation retires only
once it drains.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.core.pipeline import MeasurementPipeline
from repro.corpus.generator import generate_world
from repro.corpus.model import ScenarioConfig
from repro.ingest import IngestionService
from repro.ingest.service import diff_measurements
from repro.serve.app import IntelService
from repro.serve.auth import ApiKeyRegistry
from repro.serve.client import IntelClient
from repro.serve.http import BackgroundServer, HttpRequest
from repro.serve.index import build_index
from repro.serve.snapshot import (
    CheckpointIndexSource,
    checkpoint_plan,
    measurement_from_checkpoint,
)
from repro.serve.watcher import SnapshotWatcher

_KEY = "swap-key"


@pytest.fixture(scope="module")
def world():
    return generate_world(ScenarioConfig(seed=7, scale=0.003))


@pytest.fixture(scope="module")
def expected(world):
    return MeasurementPipeline(world).run()


class _Stop(Exception):
    """Simulated shutdown partway through ingestion."""


def _ingest(world, checkpoint, stop_after=None, resume=False):
    def hook(point, batch_id):
        if stop_after is not None and point == "post-commit" \
                and batch_id == stop_after:
            raise _Stop(batch_id)
    service = IngestionService(world, checkpoint, batch_days=30,
                               snapshot_every=4, fsync=False,
                               resume=resume,
                               fault_hook=hook if stop_after else None)
    if stop_after is not None:
        with pytest.raises(_Stop):
            service.run()
        return None
    return service.run()


def _req(path):
    return HttpRequest(method="GET", target=path, path=path,
                       headers={"x-api-key": _KEY})


def _registry():
    registry = ApiKeyRegistry()
    registry.add(_KEY)
    return registry


class TestColdStart:
    def test_finished_checkpoint_restores_identically(self, world,
                                                      expected,
                                                      tmp_path):
        checkpoint = tmp_path / "ck"
        _ingest(world, checkpoint)
        plan = checkpoint_plan(checkpoint)
        assert plan["finalized"] is True
        assert plan["batch_days"] == 30
        restored = measurement_from_checkpoint(world, checkpoint)
        assert diff_measurements(expected, restored) == []
        index = build_index(restored, generation=1)
        assert index.counts()["hashes"] == len(expected.records)

    def test_partial_checkpoint_serves_committed_prefix(self, world,
                                                        expected,
                                                        tmp_path):
        checkpoint = tmp_path / "ck"
        _ingest(world, checkpoint, stop_after=90)
        restored = measurement_from_checkpoint(world, checkpoint,
                                               batch_days=30)
        index = build_index(restored, generation=1)
        hashes = index.counts()["hashes"]
        assert 0 < hashes < len(expected.records)
        # everything the partial index knows agrees with the full run
        full = {r.sha256 for r in expected.records}
        served = {intel["sha256"] for intel in index._hashes.values()}
        assert served <= full


class TestWatcherSwap:
    def test_journal_advance_triggers_rebuild_and_swap(self, world,
                                                       expected,
                                                       tmp_path):
        checkpoint = tmp_path / "ck"
        _ingest(world, checkpoint, stop_after=90)
        source = CheckpointIndexSource(world, checkpoint, batch_days=30)
        assert source.stamp() is not None
        service = IntelService(source.build(1), _registry())
        watcher = SnapshotWatcher(service, source)
        watcher.prime()

        # unchanged checkpoint: the poll is a no-op
        assert asyncio.run(watcher.poll_once()) is False
        assert service.generation == 1

        stale_count = service.index.counts()["hashes"]
        missing = sorted({r.sha256 for r in expected.records}
                         - set(service.index._hashes))[0]
        assert service.index.hash_intel(missing) is None

        _ingest(world, checkpoint, resume=True)  # commit the rest
        assert asyncio.run(watcher.poll_once()) is True
        assert watcher.swaps == 1
        assert service.generation == 2
        assert service.index.counts()["hashes"] \
            == len(expected.records) > stale_count
        # the swapped index serves the new fact
        assert service.index.hash_intel(missing) is not None
        assert service.retired_generations == [1]

    def test_inflight_request_completes_on_old_generation(self, world,
                                                          expected,
                                                          tmp_path):
        checkpoint = tmp_path / "ck"
        _ingest(world, checkpoint)
        result = measurement_from_checkpoint(world, checkpoint)
        first = build_index(result, generation=1)
        second = build_index(result, generation=2)

        async def scenario():
            parked = asyncio.Event()
            release = asyncio.Event()
            calls = []

            async def hook(request, index):
                calls.append(index.generation)
                if len(calls) == 1:  # park only the first request
                    parked.set()
                    await release.wait()

            service = IntelService(first, _registry(),
                                   request_hook=hook)
            old_task = asyncio.create_task(
                service.handle(_req("/v1/info")))
            await parked.wait()
            assert service.inflight == 1

            service.swap(second)
            # old generation is drained, not dropped: still un-retired
            assert service.generation == 2
            assert service.retired_generations == []

            # a request racing the parked one answers from gen 2
            fresh = await service.handle(_req("/v1/info"))
            assert json.loads(fresh.body)["generation"] == 2
            assert service.retired_generations == []

            release.set()
            old = await old_task
            # the parked request answered from its original index …
            assert json.loads(old.body)["generation"] == 1
            # … and only its completion retired generation 1
            assert service.retired_generations == [1]
            assert calls == [1, 2]

        asyncio.run(scenario())


class TestServeBenchSmoke:
    def test_sustained_load_swap_is_clean(self, expected):
        """Client threads keep querying a real socket while generation
        2 is swapped in: no request fails and every response carries
        generation 1 or 2."""
        index = build_index(expected, generation=1, source="swap-smoke")
        service = IntelService(index, _registry())
        examples = index.examples(limit=4)
        paths = ([f"/v1/hash/{sha}" for sha in examples["hashes"]]
                 + [f"/v1/wallet/{w}" for w in examples["wallets"]]
                 + [f"/v1/campaign/{c}" for c in examples["campaigns"]])
        scan_body = {"iocs": examples["hashes"] + examples["wallets"]}
        swapped = threading.Event()
        observed = []  # (thread, status, generation)
        lock = threading.Lock()

        def client_loop(thread_id, host, port):
            seen_after_swap = 0
            with IntelClient(host, port, api_key=_KEY) as client:
                position = thread_id
                while seen_after_swap < 5:
                    after = swapped.is_set()
                    if position % 5 == 4:
                        status, payload = client.request(
                            "POST", "/v1/scan", body=scan_body)
                    else:
                        status, payload = client.request(
                            "GET", paths[position % len(paths)])
                    position += 1
                    seen_after_swap += after
                    with lock:
                        observed.append((thread_id, status,
                                         payload.get("generation")))

        with BackgroundServer(service.handle) as server:
            threads = [threading.Thread(target=client_loop,
                                        args=(i, server.host, server.port))
                       for i in range(3)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            while len(observed) < 30 and time.monotonic() < deadline:
                time.sleep(0.01)
            second = build_index(expected, generation=2,
                                 source="swap-smoke")
            server.call_soon(lambda: service.swap(second))
            swapped.set()
            for thread in threads:
                thread.join(timeout=30)

        assert len(observed) >= 30
        assert [o for o in observed if o[1] != 200] == []
        generations = {o[2] for o in observed}
        assert generations == {1, 2}
        # each client saw generation 2 once the swap had landed
        for thread_id in range(3):
            assert [o[2] for o in observed if o[0] == thread_id][-1] == 2
        assert service.generation == 2
