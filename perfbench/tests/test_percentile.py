"""The percentile-with-sample-count rule."""

import pytest

from loadgen import percentile, tail_percentile


def test_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(list(reversed(values)), 100) == 100


@pytest.mark.parametrize("n, pct", [
    (5, 50.0),       # fewer than ten samples: the median
    (19, 50.0),      # 9.5 beyond p50: still the median
    (20, 50.0),      # exactly 10 beyond p50
    (40, 75.0),      # 10 beyond p75
    (100, 90.0),     # 10 beyond p90, 5 beyond p95
    (200, 95.0),
    (999, 95.0),     # 9.99 beyond p99 is not enough
    (1000, 99.0),
    (100000, 99.0),  # p99 is the highest reported
])
def test_highest_percentile_with_ten_beyond(n, pct):
    tail = tail_percentile([float(i) for i in range(n)])
    assert tail["pct"] == pct
    assert tail["n"] == n
    assert n * (100 - tail["pct"]) / 100 >= 10 or tail["pct"] == 50.0


def test_value_is_the_chosen_percentile():
    values = [float(i) for i in range(1, 1001)]
    tail = tail_percentile(values)
    assert tail["value"] == percentile(values, 99) == 990.0
