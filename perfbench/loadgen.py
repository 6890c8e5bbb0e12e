"""Open-loop load generation for the ``serve`` workload.

Requests arrive on a seeded Poisson schedule that does not wait for
responses, so a server that stalls receives the same load as one that
keeps up, and every request is timed from when it was *due*, not from
when the generator managed to send it.  The stall a slow response
imposes on the requests queued behind it therefore shows in latency
instead of disappearing (coordinated omission).

Requests go out over a few keep-alive connections with HTTP/1.1
pipelining: the next due request is written even while earlier ones on
the same connection are unanswered.  The generator records how late
each send ran; a phase whose sends ran late is not a valid measurement
of the server.
"""

import asyncio
import math
import random
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Sequence

__all__ = ["LoadPhase", "Request", "drive", "phase_summary",
           "poisson_schedule", "run_phase", "tail_percentile"]

#: candidate percentiles, highest first (see :func:`tail_percentile`).
_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (sorted or not)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float]) -> Dict[str, float]:
    """The highest percentile up to p99 that has at least ten samples
    beyond it, with its value and the sample count.

    ``n`` samples support percentile ``p`` when ``n * (1 - p/100) >= 10``.
    With fewer than ten samples in all, the median is reported.
    """
    n = len(values)
    chosen = 50.0
    for pct in _PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10 - 1e-9:
            chosen = pct
            break
    return {"pct": chosen, "value": percentile(values, chosen), "n": n}


def poisson_schedule(rng: random.Random, rate: float, duration_s: float
                     ) -> List[int]:
    """Due times (ns from the phase start) of a Poisson arrival process
    at ``rate``/s."""
    due: List[int] = []
    t = rng.expovariate(rate)
    while t < duration_s:
        due.append(int(t * 1e9))
        t += rng.expovariate(rate)
    return due


@dataclass
class Request:
    """One scheduled request and what happened to it."""

    due_ns: int
    conn: int
    payload: bytes
    query: int
    scan: bool = False
    sent_ns: int = 0
    done_ns: int = 0
    status: int = 0
    body: bytes = b""
    error: str = ""

    @property
    def latency_ms(self) -> float:
        """Completion time measured from when the request was due."""
        return (self.done_ns - self.due_ns) / 1e6

    @property
    def lateness_ms(self) -> float:
        """How late the generator sent it."""
        return (self.sent_ns - self.due_ns) / 1e6


async def drive(requests: Sequence[Request],
                send: Callable[[Request], None],
                clock: Callable[[], int],
                sleep: Callable[[float], Awaitable[None]]) -> None:
    """Send each request at its due time, never waiting for replies.

    Requests must be sorted by ``due_ns``.  A request that is already
    overdue is sent at once; its lateness is recorded, never skipped.
    """
    for request in requests:
        now = clock()
        if request.due_ns > now:
            await sleep((request.due_ns - now) / 1e9)
            now = clock()
        request.sent_ns = now
        send(request)


class _Connection(asyncio.Protocol):
    """One pipelined keep-alive connection; responses come in order."""

    def __init__(self, clock: Callable[[], int]) -> None:
        self._clock = clock
        self._buffer = bytearray()
        self.pending: List[Request] = []
        self._head = 0
        self.transport: Optional[asyncio.Transport] = None
        self.closed = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport

    def send(self, request: Request) -> None:
        self.pending.append(request)
        if self.transport is None or self.transport.is_closing():
            request.error = "connection closed"
            return
        self.transport.write(request.payload)

    def data_received(self, data: bytes) -> None:
        now = self._clock()
        buffer = self._buffer
        buffer += data
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end < 0:
                return
            head = bytes(buffer[:end]).lower()
            marker = head.find(b"content-length:")
            length = 0
            if marker >= 0:
                line_end = head.find(b"\r\n", marker)
                length = int(head[marker + 15:line_end if line_end >= 0
                                  else len(head)])
            total = end + 4 + length
            if len(buffer) < total:
                return
            request = self._next_pending()
            if request is not None:
                request.status = int(head[9:12])
                request.body = bytes(buffer[end + 4:total])
                request.done_ns = now
            del buffer[:total]

    def _next_pending(self) -> Optional[Request]:
        while self._head < len(self.pending):
            request = self.pending[self._head]
            self._head += 1
            if not request.error:
                return request
        return None

    def outstanding(self) -> int:
        return sum(1 for r in self.pending[self._head:] if not r.error)

    def connection_lost(self, exc) -> None:
        for request in self.pending[self._head:]:
            if not request.done_ns and not request.error:
                request.error = "connection lost"
        self._head = len(self.pending)
        if not self.closed.done():
            self.closed.set_result(None)


@dataclass
class LoadPhase:
    """One constant-rate phase: the reference, the rebuild or a rung."""

    rate: float
    duration_s: float
    requests: List[Request] = field(default_factory=list)


async def run_phase(host: str, port: int, phase: LoadPhase,
                    connections: int, timeout_s: float,
                    at_start: Optional[Callable[[], None]] = None) -> None:
    """Drive ``phase.requests`` (due times relative to the phase start)
    and wait up to ``timeout_s`` past the last due time for replies.

    Unanswered requests are marked as timeouts; refused connections
    mark every request of the phase as failed.
    """
    clock = time.perf_counter_ns
    loop = asyncio.get_running_loop()
    conns: List[_Connection] = []
    try:
        for _ in range(connections):
            _transport, protocol = await loop.create_connection(
                lambda: _Connection(clock), host, port)
            conns.append(protocol)
    except OSError as exc:
        for request in phase.requests:
            request.error = f"connect: {exc}"
        for conn in conns:
            conn.transport.close()
        return
    start = clock()
    for request in phase.requests:
        request.due_ns += start
    if at_start is not None:
        at_start()
    await drive(phase.requests, lambda r: conns[r.conn].send(r), clock,
                asyncio.sleep)
    deadline = start + int((phase.duration_s + timeout_s) * 1e9)
    while any(c.outstanding() for c in conns) and clock() < deadline:
        await asyncio.sleep(0.005)
    for conn in conns:
        conn.transport.close()
    for conn in conns:
        await asyncio.wait_for(conn.closed, timeout=5)
    for request in phase.requests:
        if not request.done_ns and not request.error:
            request.error = "timeout"
        elif request.done_ns and request.latency_ms > timeout_s * 1e3:
            request.error = "timeout"


def phase_summary(phase: LoadPhase, ok: Callable[[Request], bool],
                  latency_limit_ms: float, lag_limit_ms: float
                  ) -> Dict[str, float]:
    """Latency, lateness and failure accounting for one phase.

    A request that failed, timed out or returned a wrong body counts
    as a miss of the latency limit.  The phase *meets* its rate when
    nothing failed, the lookup tail stays within ``latency_limit_ms``
    and latency was not still climbing at the end (a growing backlog);
    it is *valid* only when the generator's own sends stayed within
    ``lag_limit_ms``.  Lookups are in due-time order, as sent.
    """
    requests = phase.requests
    good = [r for r in requests if not r.error and ok(r)]
    failed = len(requests) - len(good)
    lookups = [r.latency_ms for r in good if not r.scan]
    scans = [r.latency_ms for r in good if r.scan]
    lateness = [max(0.0, r.lateness_ms) for r in requests if r.sent_ns]
    lag = tail_percentile(lateness) if lateness else {"value": 0.0,
                                                      "pct": 0.0}
    tail = tail_percentile(lookups) if lookups else {"pct": 0, "value":
                                                     math.inf, "n": 0}
    # a growing backlog shows as latency still climbing when the phase
    # ends: the closing tenth's median may not sit more than half the
    # limit above the opening tenth's (brief stalls move neither much).
    drained = True
    if lookups:
        tenth = max(1, len(lookups) // 10)
        rise = (percentile(lookups[-tenth:], 50)
                - percentile(lookups[:tenth], 50))
        drained = rise <= latency_limit_ms / 2
    achieved = (len(good) / phase.duration_s) if phase.duration_s else 0.0
    summary = {
        "rate": phase.rate,
        "sent": len(requests),
        "failed": failed,
        "achieved_rps": achieved,
        "p50_ms": percentile(lookups, 50) if lookups else math.inf,
        "tail_pct": tail["pct"],
        "tail_ms": tail["value"],
        "lookups": len(lookups),
        "lag_pct": lag["pct"],
        "lag_ms": lag["value"],
        "valid": lag["value"] <= lag_limit_ms,
    }
    if scans:
        scan_tail = tail_percentile(scans)
        summary.update(scan_tail_pct=scan_tail["pct"],
                       scan_tail_ms=scan_tail["value"], scans=len(scans))
    summary["meets"] = (failed == 0 and drained
                        and tail["value"] <= latency_limit_ms)
    return summary
