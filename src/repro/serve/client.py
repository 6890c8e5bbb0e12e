"""Bundled synchronous client for the intel API.

A thin :mod:`http.client` wrapper (stdlib only, like the server) used
by the CI smoke job and integration tests.  One
client holds one keep-alive connection; a stale connection (server
restarted, idle timeout) is retried once on a fresh socket.
"""

import http.client
import json
from typing import Any, Dict, List, Optional

__all__ = ["IntelClient", "ServeError"]


class ServeError(Exception):
    """A non-2xx response the caller did not opt into handling."""

    def __init__(self, status: int, payload: Any) -> None:
        super().__init__(f"HTTP {status}: {payload}")
        self.status = status
        self.payload = payload


class IntelClient:
    """Synchronous client bound to one server and API key."""

    def __init__(self, host: str, port: int,
                 api_key: Optional[str] = None,
                 timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.api_key = api_key
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None
        #: status of the most recent exchange (observability/tests).
        self.last_status: Optional[int] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        """Drop the keep-alive connection."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None) -> tuple:
        """One exchange; returns ``(status, payload)``.

        Retries exactly once on a dead keep-alive socket.
        """
        headers = {}
        if self.api_key:
            headers["X-Api-Key"] = self.api_key
        encoded = None
        if body is not None:
            encoded = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=encoded,
                             headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError,
                    BrokenPipeError, TimeoutError):
                self.close()
                if attempt:
                    raise
        self.last_status = response.status
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError:
            payload = {"raw": raw.decode("utf-8", "replace")}
        return response.status, payload

    def _lookup(self, path: str) -> Optional[Dict[str, Any]]:
        status, payload = self.request("GET", path)
        if status == 200:
            return payload
        if status == 404:
            return None
        raise ServeError(status, payload)

    def _must(self, method: str, path: str,
              body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        status, payload = self.request(method, path, body=body)
        if status != 200:
            raise ServeError(status, payload)
        return payload

    # -- endpoint wrappers -------------------------------------------------

    def hash_intel(self, sha256: str) -> Optional[Dict[str, Any]]:
        """GET /v1/hash/{sha}; None on 404."""
        return self._lookup(f"/v1/hash/{sha256}")

    def wallet_intel(self, identifier: str) -> Optional[Dict[str, Any]]:
        """GET /v1/wallet/{addr}; None on 404."""
        return self._lookup(f"/v1/wallet/{identifier}")

    def campaign_intel(self, campaign_id: int
                       ) -> Optional[Dict[str, Any]]:
        """GET /v1/campaign/{id}; None on 404."""
        return self._lookup(f"/v1/campaign/{campaign_id}")

    def domain_intel(self, name: str) -> Optional[Dict[str, Any]]:
        """GET /v1/domain/{d}; None on 404."""
        return self._lookup(f"/v1/domain/{name}")

    def scan(self, iocs: Optional[List[str]] = None,
             text: Optional[str] = None) -> Dict[str, Any]:
        """POST /v1/scan over an IoC list or a free-text blob."""
        body: Dict[str, Any] = {}
        if iocs is not None:
            body["iocs"] = iocs
        if text is not None:
            body["text"] = text
        return self._must("POST", "/v1/scan", body=body)

    def metrics(self) -> Dict[str, Any]:
        """GET /v1/metrics."""
        return self._must("GET", "/v1/metrics")

    def info(self) -> Dict[str, Any]:
        """GET /v1/info."""
        return self._must("GET", "/v1/info")

    def healthz(self) -> Dict[str, Any]:
        """GET /v1/healthz (unauthenticated liveness)."""
        return self._must("GET", "/v1/healthz")

    def __enter__(self) -> "IntelClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
