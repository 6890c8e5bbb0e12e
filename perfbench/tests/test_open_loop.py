"""Lateness and latency accounting of the open-loop schedule."""

import asyncio
import random

from loadgen import LoadPhase, Request, drive, phase_summary, \
    poisson_schedule


class FakeClock:
    """Nanosecond clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    async def sleep(self, seconds: float) -> None:
        self.now += int(seconds * 1e9)


def _requests(dues):
    return [Request(due_ns=due, conn=0, payload=b"", query=0)
            for due in dues]


def test_on_time_sends_have_no_lateness():
    clock = FakeClock()
    requests = _requests([1_000_000, 2_000_000, 5_000_000])
    asyncio.run(drive(requests, lambda r: None, clock, clock.sleep))
    assert [r.sent_ns for r in requests] == [1_000_000, 2_000_000,
                                              5_000_000]
    assert all(r.lateness_ms == 0 for r in requests)


def test_a_stall_makes_later_sends_late_and_none_are_skipped():
    clock = FakeClock()
    requests = _requests([1_000_000, 2_000_000, 3_000_000, 20_000_000])
    sent = []

    def send(request):
        sent.append(request)
        if request is requests[0]:
            clock.now += 10_000_000     # the generator stalls 10 ms

    asyncio.run(drive(requests, send, clock, clock.sleep))
    assert sent == requests
    assert [round(r.lateness_ms, 3) for r in requests] == [0, 9, 8, 0]


def test_latency_counts_from_the_due_time():
    request = Request(due_ns=1_000_000, conn=0, payload=b"", query=0,
                      sent_ns=6_000_000, done_ns=7_000_000)
    assert request.lateness_ms == 5.0
    assert request.latency_ms == 6.0     # not 1 ms from the send


def _phase(latencies_ms, errors=0):
    phase = LoadPhase(rate=100.0, duration_s=1.0)
    for i, latency in enumerate(latencies_ms):
        due = (i + 1) * 1_000_000
        phase.requests.append(Request(
            due_ns=due, conn=0, payload=b"", query=0, sent_ns=due,
            done_ns=due + int(latency * 1e6), status=200))
    for request in phase.requests[:errors]:
        request.error = "timeout"
    return phase


def test_failed_requests_miss_the_limit():
    summary = phase_summary(_phase([1.0] * 100), lambda r: True, 5.0, 10.0)
    assert summary["meets"] and summary["failed"] == 0
    failed = phase_summary(_phase([1.0] * 100, errors=1), lambda r: True,
                           5.0, 10.0)
    assert failed["failed"] == 1 and not failed["meets"]
    wrong = phase_summary(_phase([1.0] * 100),
                          lambda r: r.due_ns != 1_000_000, 5.0, 10.0)
    assert wrong["failed"] == 1 and not wrong["meets"]


def test_a_growing_backlog_fails_the_step():
    climbing = [1.0 + i for i in range(100)]   # latency still rising
    summary = phase_summary(_phase(climbing), lambda r: True, 150.0, 10.0)
    assert summary["tail_ms"] <= 150.0
    assert not summary["meets"]


def test_a_late_generator_invalidates_the_phase():
    phase = _phase([1.0] * 100)
    for request in phase.requests[-20:]:
        request.sent_ns += 50_000_000
    summary = phase_summary(phase, lambda r: True, 100.0, 10.0)
    assert not summary["valid"]


def test_poisson_schedule_is_seeded_and_near_its_rate():
    first = poisson_schedule(random.Random(5), 1000.0, 2.0)
    assert first == poisson_schedule(random.Random(5), 1000.0, 2.0)
    assert 1800 < len(first) < 2200
    assert first == sorted(first) and first[-1] < 2_000_000_000
