"""Multi-process serving fleet: real forks, real sockets.

A two-worker :class:`~repro.serve.fleet.ServerFleet` over the shared
pipeline-result index: point lookups and a bulk ``/v1/scan`` answered
correctly, connections actually landing on the forked children (every
``/v1/healthz`` pid is one of the fleet's), both workers sharing the
pre-fork index copy-on-write, and ``stop()`` leaving no live child
behind.  POSIX-only by construction — the fleet refuses to
start without ``os.fork``.
"""

import os
import signal

import pytest

from repro.serve.app import IntelService
from repro.serve.auth import ApiKeyRegistry
from repro.serve.client import IntelClient
from repro.serve.fleet import ServerFleet, reuse_port_supported
from repro.serve.index import build_index

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="ServerFleet requires os.fork")

_KEY = "fleet-key"


@pytest.fixture(scope="module")
def index(pipeline_result):
    return build_index(pipeline_result, generation=1, source="test")


@pytest.fixture(scope="module")
def service(index):
    registry = ApiKeyRegistry()
    registry.add(_KEY, name="tests")
    return IntelService(index, registry)


def _healthz_pid(host, port):
    with IntelClient(host, port, api_key=_KEY) as client:
        status, payload = client.request("GET", "/v1/healthz")
    assert status == 200
    return payload["pid"]


def _smaps_rollup(pid):
    """The kB counters of ``/proc/<pid>/smaps_rollup``."""
    fields = {}
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            parts = line.split()
            if len(parts) == 3 and parts[2] == "kB":
                fields[parts[0].rstrip(":")] = int(parts[1])
    return fields


class TestServerFleet:
    def test_rejects_zero_workers(self, service):
        with pytest.raises(ValueError):
            ServerFleet(service.handle, workers=0)

    def test_reuse_port_probe_is_boolean(self):
        assert reuse_port_supported() in (True, False)

    def test_two_worker_smoke(self, service, index):
        parent = os.getpid()
        with ServerFleet(service.handle, workers=2) as fleet:
            assert len(fleet.pids) == 2
            assert parent not in fleet.pids
            assert sorted(fleet.alive()) == sorted(fleet.pids)

            # every keep-alive connection is held by one of the forked
            # children (which one the kernel picks is its business)
            seen = {_healthz_pid(fleet.host, fleet.port)
                    for _ in range(8)}
            assert seen <= set(fleet.pids)

            # point + bulk queries answer from the pre-fork COW index
            wallet = index.examples(limit=1)["wallets"][0]
            sha = index.examples(limit=1)["hashes"][0]
            with IntelClient(fleet.host, fleet.port,
                             api_key=_KEY) as client:
                status, payload = client.request(
                    "GET", f"/v1/wallet/{wallet}")
                assert status == 200
                assert payload["found"] is True
                assert payload["kind"] == "wallet"
                status, payload = client.request(
                    "POST", "/v1/scan",
                    body={"iocs": [sha, wallet, "not-an-ioc"]})
                assert status == 200
                hits = {h["indicator"] for h in payload["hits"]}
                assert {sha, wallet} <= hits
                assert payload["submitted"] == 3
                assert payload["generation"] == 1
            # both workers survived the load
            assert sorted(fleet.alive()) == sorted(fleet.pids)
            pids = list(fleet.pids)
        # clean exit: every child reaped, none left running
        assert fleet.pids == []
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.skipif(not os.path.exists("/proc/self/smaps_rollup"),
                        reason="needs Linux smaps_rollup")
    def test_workers_share_the_prefork_index(self, service, index):
        """Copy-on-write: after serving queries, the two forked workers
        add well under half the parent's footprint (unshared, they would
        each add about all of it)."""
        sha = index.examples(limit=1)["hashes"][0]
        with ServerFleet(service.handle, workers=2) as fleet:
            with IntelClient(fleet.host, fleet.port,
                             api_key=_KEY) as client:
                for _ in range(20):
                    assert client.request(
                        "GET", f"/v1/hash/{sha}")[0] == 200
            parent_rss = _smaps_rollup(os.getpid())["Rss"]
            total_pss = sum(_smaps_rollup(pid)["Pss"]
                            for pid in [os.getpid()] + fleet.pids)
        assert total_pss < 1.5 * parent_rss, (total_pss, parent_rss)

    def test_stop_is_idempotent(self, service):
        fleet = ServerFleet(service.handle, workers=2).start()
        fleet.stop()
        fleet.stop()
        assert fleet.alive() == []

    def test_children_exit_on_sigterm(self, service):
        fleet = ServerFleet(service.handle, workers=2).start()
        try:
            victim = fleet.pids[0]
            os.kill(victim, signal.SIGTERM)
            _done, status = os.waitpid(victim, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            # the surviving worker still answers on the shared port
            assert _healthz_pid(fleet.host, fleet.port) == fleet.pids[1]
        finally:
            fleet.stop()
