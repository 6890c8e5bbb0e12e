"""HTTP layer: auth, rate limiting, routing, metrics, real sockets.

Auth and throttling run against the transport-free ``handle()``
coroutine with an explicit fake clock — no sleeping.  One class runs
the full stack over real sockets (BackgroundServer + the bundled
client), which is also what CI's smoke job exercises.
"""

import asyncio
import http.client
import json

import pytest

from repro.serve.app import MAX_SCAN_IOCS, IntelService
from repro.serve.auth import ApiKeyRegistry, TokenBucket
from repro.serve.client import IntelClient
from repro.serve.http import BackgroundServer, HttpRequest, json_response
from repro.serve.index import build_index

_KEY = "test-key"


@pytest.fixture(scope="module")
def index(pipeline_result):
    return build_index(pipeline_result, generation=1, source="test")


def _service(index, rate=0.0, burst=10, clock=None):
    registry = ApiKeyRegistry(clock=clock) if clock else ApiKeyRegistry()
    registry.add(_KEY, name="tests", rate=rate, burst=burst)
    return IntelService(index, registry)


def _req(method, path, key=_KEY, body=b"", headers=None):
    all_headers = dict(headers or {})
    if key:
        all_headers.setdefault("x-api-key", key)
    return HttpRequest(method=method, target=path, path=path,
                       headers=all_headers, body=body)


def _call(service, request):
    response = asyncio.run(service.handle(request))
    return response.status, json.loads(response.body)


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestAuth:
    def test_healthz_needs_no_key(self, index):
        status, payload = _call(_service(index),
                                _req("GET", "/v1/healthz", key=None))
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["generation"] == 1
        assert payload["pid"] > 0

    def test_missing_key_is_401(self, index):
        status, _ = _call(_service(index), _req("GET", "/v1/info",
                                                key=None))
        assert status == 401

    def test_wrong_key_is_401(self, index):
        status, _ = _call(_service(index), _req("GET", "/v1/info",
                                                key="not-the-key"))
        assert status == 401

    def test_bearer_header_accepted(self, index):
        request = _req("GET", "/v1/info", key=None,
                       headers={"authorization": f"Bearer {_KEY}"})
        status, payload = _call(_service(index), request)
        assert status == 200
        assert payload["generation"] == 1


class TestRateLimit:
    def test_bucket_refills_at_rate(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
        assert bucket.allow() == (True, 0.0)
        assert bucket.allow() == (True, 0.0)
        allowed, retry = bucket.allow()
        assert not allowed and retry == pytest.approx(0.5)
        clock.t += 0.5
        assert bucket.allow() == (True, 0.0)

    def test_burst_then_429_with_retry_after(self, index):
        clock = _FakeClock()
        service = _service(index, rate=1.0, burst=2, clock=clock)
        assert _call(service, _req("GET", "/v1/info"))[0] == 200
        assert _call(service, _req("GET", "/v1/info"))[0] == 200
        response = asyncio.run(service.handle(_req("GET", "/v1/info")))
        assert response.status == 429
        assert float(response.headers["retry-after"]) > 0
        assert json.loads(response.body)["retry_after_s"] > 0
        clock.t += 1.0
        assert _call(service, _req("GET", "/v1/info"))[0] == 200

    def test_unlimited_key_never_throttled(self, index):
        service = _service(index, rate=0.0)
        for _ in range(50):
            assert _call(service, _req("GET", "/v1/healthz"))[0] == 200


class TestRouting:
    def test_unknown_endpoint_is_404(self, index):
        assert _call(_service(index),
                     _req("GET", "/v1/nonsense"))[0] == 404

    def test_unknown_hash_is_404(self, index):
        status, payload = _call(_service(index),
                                _req("GET", f"/v1/hash/{'f' * 64}"))
        assert status == 404
        assert payload["found"] is False

    def test_non_integer_campaign_is_400(self, index):
        assert _call(_service(index),
                     _req("GET", "/v1/campaign/abc"))[0] == 400

    def test_wrong_method_is_405(self, index):
        assert _call(_service(index),
                     _req("POST", "/v1/hash/abc"))[0] == 405
        assert _call(_service(index), _req("GET", "/v1/scan"))[0] == 405

    def test_scan_rejects_bad_bodies(self, index):
        service = _service(index)
        cases = [b"not json", b"[]", b"{}",
                 json.dumps({"iocs": "not-a-list"}).encode(),
                 json.dumps({"iocs": ["a"] * (MAX_SCAN_IOCS + 1)}
                            ).encode()]
        for body in cases:
            assert _call(service,
                         _req("POST", "/v1/scan", body=body))[0] == 400

    def test_every_response_carries_generation(self, index,
                                               pipeline_result):
        service = _service(index)
        sha = pipeline_result.records[0].sha256
        for request in [_req("GET", f"/v1/hash/{sha}"),
                        _req("GET", "/v1/hash/" + "f" * 64),
                        _req("GET", "/v1/info"),
                        _req("GET", "/v1/metrics")]:
            _, payload = _call(service, request)
            assert payload["generation"] == 1


class TestMetrics:
    def test_requests_are_observed_per_endpoint(self, index):
        service = _service(index)
        for _ in range(3):
            _call(service, _req("GET", "/v1/info"))
        _call(service, _req("GET", "/v1/info", key="bad"))
        snapshot = service.metrics.snapshot()
        endpoint = snapshot["endpoints"]["GET /v1/info"]
        assert endpoint["requests"] == 4
        assert endpoint["by_status"] == {"200": 3, "401": 1}
        assert endpoint["p50_ms"] >= 0
        assert snapshot["requests_total"] == 4


class TestRealSockets:
    """Full stack: asyncio server on its own thread + bundled client."""

    def test_point_scan_and_metrics_roundtrip(self, index,
                                              pipeline_result):
        service = _service(index)
        record = pipeline_result.records[0]
        with BackgroundServer(service.handle) as server:
            with IntelClient(server.host, server.port,
                             api_key=_KEY) as client:
                assert client.healthz()["status"] == "ok"
                info = client.info()
                assert info["hashes"] == len(pipeline_result.records)

                intel = client.hash_intel(record.sha256)["intel"]
                assert intel == index.hash_intel(record.sha256)
                assert client.hash_intel("f" * 64) is None
                assert client.campaign_intel(1)["intel"] \
                    == index.campaign_intel(1)

                scan = client.scan(iocs=[record.sha256, "junk"])
                assert scan["num_hits"] >= 1
                assert record.sha256 in {h["indicator"]
                                         for h in scan["hits"]}

                metrics = client.metrics()
                assert metrics["requests_total"] >= 5

    def test_unauthenticated_socket_client_gets_401(self, index):
        service = _service(index)
        with BackgroundServer(service.handle) as server:
            with IntelClient(server.host, server.port) as client:
                status, _ = client.request("GET", "/v1/info")
                assert status == 401

    def test_handler_error_hides_its_message(self):
        """A raising handler yields a fixed 500 body, and the keep-alive
        connection goes on serving."""
        async def handler(request):
            if request.path == "/boom":
                raise RuntimeError("secret")
            return json_response({"ok": True})

        with BackgroundServer(handler) as server:
            conn = http.client.HTTPConnection(server.host, server.port,
                                              timeout=10)
            try:
                conn.request("GET", "/boom")
                response = conn.getresponse()
                body = response.read()
                sock = conn.sock
                assert response.status == 500
                assert b"secret" not in body
                assert json.loads(body) == {"error": "internal error"}

                conn.request("GET", "/fine")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read()) == {"ok": True}
                assert conn.sock is sock  # same connection
            finally:
                conn.close()
