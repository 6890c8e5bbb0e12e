"""A fixed CPU microbenchmark that stamps a benchmark run's machine.

Dev boxes and CI runners differ by 2-3x in single-core speed, so a
throughput figure means little without a note of how fast the machine
was.  :func:`calibration_score` is the throughput of a fixed,
dependency-free workload; ``perfbench/run.py`` records it in every run
stamp so runs from different machines can be read side by side.

The workload is sha256 over a fixed in-memory buffer: pure CPU, no
allocation churn, no disk, stable across Python patch versions, and
large enough (16 MiB per pass) that timer jitter stays under a
percent.  Best-of-three absorbs scheduler blips.
"""

import hashlib
import time

__all__ = ["calibration_score"]

#: 4 KiB block, repeated _BLOCKS times per pass = 16 MiB hashed.
_BLOCK = bytes(range(256)) * 16
_BLOCKS = 4096
_PASSES = 3


def calibration_score() -> float:
    """MiB/s of sha256 over a fixed buffer — best of three passes."""
    mib = _BLOCKS * len(_BLOCK) / (1024 * 1024)
    best = 0.0
    for _ in range(_PASSES):
        digest = hashlib.sha256()
        start = time.perf_counter()
        for _ in range(_BLOCKS):
            digest.update(_BLOCK)
        digest.digest()
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, mib / elapsed)
    return round(best, 1)
