"""Host speed probes: step times expressed at a fixed reference speed.

On a shared virtual machine the speed of the host's cores changes by up
to 2x within seconds and stays changed for minutes (other tenants on
the same physical cores), and every timed figure of a run follows it.
A probe is a fixed piece of interpreter work (dict updates, string
formatting, ``json.dumps``), timed with garbage collection off.  Timing
it while a step of the program runs (on a thread of its own) or right
before it tells how fast the host ran meanwhile, so the step's time can
be stated at the reference speed, the speed at which one probe takes
``REFERENCE_S``::

    speed = REFERENCE_S / probe seconds
    reference seconds = step seconds * mean speed over the step

A change that makes the program do more work makes its steps longer
and leaves the probe as it was, so it still shows in full.  A change
that slows the interpreter itself (a global trace hook, say) would
slow the probe too and be hidden; the raw figures are reported per
layer for that reason.
"""

import gc
import json
import statistics
import threading
import time
from typing import List, Sequence, Tuple

__all__ = ["REFERENCE_S", "Sampler", "at_reference", "probe", "speed",
           "step_medians"]

#: seconds one probe takes at the reference speed: about what it took
#: inline on the fast state of the 2-vCPU machine the benchmark was
#: written on.  Only ratios between runs matter; a probe on a sampling
#: thread beside a busy main thread read about 0.6 of that speed there.
REFERENCE_S = 0.001
_ROUNDS = 400


def probe() -> float:
    """CPU seconds taken by one run of the fixed probe workload.

    The calling thread's CPU time, not wall time, so that time the
    thread spends preempted or waiting for the interpreter lock is not
    read as a slow host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        counts: dict = {}
        for i in range(_ROUNDS):
            key = "k%d" % (i * 7919 % 200)
            counts[key] = counts.get(key, 0) + len(json.dumps([i, key]))
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def speed() -> float:
    """The host's speed now relative to the reference (above 1 is
    faster), from one probe."""
    return REFERENCE_S / probe()


class Sampler:
    """Probes the host's speed on a thread of its own, every ``period``
    seconds, until stopped.

    For steps that last seconds or run in other processes, where a probe
    after each step would miss most of what the host did meanwhile.  The
    probes take about 2% of one core.  ``samples`` holds ``(time, speed)``
    per probe, ``time`` on the ``time.monotonic()`` clock; ``cpu_s`` is
    the CPU time the probes took, for callers that count the process's
    CPU time."""

    def __init__(self, period: float = 0.05) -> None:
        self.samples: List[Tuple[float, float]] = []
        self.cpu_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, args=(period,),
                                        name="hostspeed", daemon=True)
        self._thread.start()

    def _run(self, period: float) -> None:
        while not self._stop.wait(period):
            seconds = probe()
            self.cpu_s += seconds
            self.samples.append((time.monotonic(), REFERENCE_S / seconds))

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def speed_over(self, start: float, end: float) -> float:
        """The mean speed probed from ``start`` to ``end`` (monotonic
        seconds): the host's speed averaged over that time, since the
        probes are evenly spaced.  With no probe in it, the speed probed
        nearest to it."""
        inside = [rate for at, rate in self.samples if start <= at <= end]
        if inside:
            return statistics.fmean(inside)
        if not self.samples:
            return speed()
        middle = (start + end) / 2
        return min(self.samples, key=lambda s: abs(s[0] - middle))[1]


def at_reference(seconds: float, rate: float) -> float:
    """``seconds`` of wall time stated at the reference speed, given the
    host's mean speed ``rate`` while they ran."""
    return seconds * rate


def step_medians(passes: Sequence[Sequence[Tuple[float, float]]]
                 ) -> List[float]:
    """Reference seconds of each step: its median across ``passes``.

    Each pass is a list of ``(seconds, speed)``, one per step, the same
    steps in the same order in every pass, ``speed`` the host's speed
    while the step ran.  The median is taken step by step, so a slow
    spell the probes misjudged moves one step of one pass, not a
    figure."""
    return [statistics.median(at_reference(seconds, rate)
                              for seconds, rate in step)
            for step in zip(*passes)]
