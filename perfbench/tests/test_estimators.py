"""How run.py turns timed passes into figures, how host speed probes
restate times, and how the closed-loop client reads answers."""

import io

import pytest

from hostspeed import REFERENCE_S, at_reference, probe, speed
from run import _pass_rates
from serve_load import _read_response, traffic_mix


def test_steps_take_the_median_of_each_step_at_reference_speed():
    # [seconds, host speed] per step; the first two steps are batches
    passes = [
        {"samples": 1000, "latency_steps": 2,
         "steps": [[1.0, 1.0], [2.0, 1.0], [0.5, 1.0]]},
        {"samples": 1000, "latency_steps": 2,
         "steps": [[6.0, 0.5], [1.0, 1.0], [0.4, 1.0]]},
        {"samples": 1000, "latency_steps": 2,
         "steps": [[2.0, 1.0], [4.5, 2.0], [0.6, 1.0]]},
    ]
    # at reference speed: steps (1, 3, 2), (2, 1, 9), (0.5, 0.4, 0.6)
    rates = _pass_rates(passes)
    assert rates["throughput_per_s"] == pytest.approx(1000 / 4.5)
    assert rates["latency_ms"] == pytest.approx(1e6 * 4.0 / 1000)
    # as measured: medians 2.0, 2.0 and 0.5
    raw = _pass_rates(passes, reference=False)
    assert raw["throughput_per_s"] == pytest.approx(1000 / 4.5)
    assert raw["latency_ms"] == pytest.approx(1e6 * 4.0 / 1000)
    # a host at twice the reference speed all along doubles every step
    for one in passes:
        one["steps"] = [[seconds, 2.0] for seconds, _ in one["steps"]]
    assert _pass_rates(passes)["latency_ms"] == pytest.approx(
        2 * _pass_rates(passes, reference=False)["latency_ms"])


def test_read_response_consumes_exactly_one_response():
    first = b'{"found": false}'
    second = b'{"found": true}'
    stream = io.BytesIO(
        b"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(first), first)
        + b"HTTP/1.1 200 OK\r\ncontent-length: %d\r\n\r\n%s"
        % (len(second), second))
    assert _read_response(stream) == (404, first)
    assert _read_response(stream) == (200, second)
    with pytest.raises(ConnectionError):
        _read_response(stream)


def test_traffic_mix_sends_every_tenth_request_to_scan():
    import random
    lookups = [{"hit": True}] * 4 + [{"hit": False}] * 2
    scans = [{"iocs": []}] * 3
    mix = traffic_mix(random.Random(1), 100, lookups, scans)
    assert [i >= len(lookups) for i in mix] == [
        n % 10 == 9 for n in range(100)]


def test_at_reference_scales_by_the_host_speed():
    assert at_reference(2.0, 0.5) == pytest.approx(1.0)


def test_probe_is_a_positive_time_and_speed_its_inverse():
    assert probe() > 0
    rate = speed()
    assert rate > 0
    assert REFERENCE_S / rate > 0
