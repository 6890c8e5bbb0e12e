"""One fresh process running a batch workload: measure, stream or ingest.

The process sets up its inputs (world or corpus skeleton), runs one
warm-up pass, then runs timed passes until ``--seconds`` have elapsed,
clearing the process-wide memos before each pass so every pass does
the same work.  The first pass after set-up is 20-40% slower than the
rest (lazy imports and first-touch state), so ``run.py`` leaves it out
of the figures; its outputs are checked like every other pass.  Each
pass is timed step by step while a thread probes the host's speed
(``hostspeed.Sampler``), from the process's start to its end.  The
process prints one JSON line: set-up time, the steps of every pass
and its output digest, the problems any correctness check found, and
peak RSS.  With ``--setup-only`` it exits after set-up; with
``--trace`` it installs the layer hooks, runs the first pass only and
adds per-layer totals.

Usage (normally started by ``run.py``)::

    PYTHONPATH=src python3 perfbench/batch.py --workload measure \\
        --seed 2019 --seconds 10 --workdir .perfbench_work/x \\
        --spawned-ns "$(python3 -c 'import time; print(time.monotonic_ns())')"
"""

import argparse
import json
import os
import shutil
import sys
import time

from digest import (
    batch_digest,
    check_reference,
    funnel_problems,
    quality_problems,
)
from hostspeed import Sampler

#: input size of each batch workload: (ScenarioConfig.scale,
#: ScenarioConfig.samples_cap).  Small worlds give many passes per run;
#: stream needs two 4096-sample chunks.  The default cap of 400 lets a seed's
#: few giant campaigns swing world size between seeds: over seeds 1-8
#: the sample count's interquartile range is 27% of its median at
#: (0.01, 60), 11% at (0.04, 60) and 6% at (0.015, 20).  measure and
#: ingest share a world, so their digests must agree.
SIZES = {"measure": (0.015, 20), "stream": (0.04, 60),
         "ingest": (0.015, 20)}
#: ingest replays the corpus as dated feed batches of this many days.
BATCH_DAYS = 30


def _mib(nbytes: float) -> float:
    return nbytes / (1024 * 1024)


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


# -- steps -------------------------------------------------------------


class Steps:
    """The steps of one pass, timed on the ``time.monotonic()`` clock.
    ``spans`` holds ``[seconds, start, end]`` per step in the order they
    ran, where ``start`` to ``end`` is the time over which the host's
    speed applies to the step (see :meth:`rates`)."""

    def __init__(self) -> None:
        self.spans: list = []

    def close(self, start: float) -> None:
        """Record a step from ``start`` to now."""
        end = time.monotonic()
        self.spans.append([end - start, start, end])

    def wrap(self, fn):
        """``fn``, recording every call as one step."""
        def timed(*args, **kwargs):
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(start)
        return timed

    def close_rest(self, start: float) -> None:
        """Record what the time from ``start`` to now held beyond the
        steps recorded in it as one more step, spread over that time."""
        end = time.monotonic()
        inner = sum(seconds for seconds, begun, _ in self.spans
                    if begun >= start)
        self.spans.append([end - start - inner, start, end])

    def seconds(self) -> float:
        return sum(seconds for seconds, _, _ in self.spans)

    def rates(self, sampler) -> list:
        """``[seconds, speed]`` per step, the speed ``sampler`` (a
        :class:`hostspeed.Sampler` running meanwhile) probed."""
        return [[seconds, sampler.speed_over(start, end)]
                for seconds, start, end in self.spans]


# -- measure -----------------------------------------------------------


def setup_measure(seed: int, scale: float, cap: int):
    from repro.corpus.generator import generate_world
    from repro.corpus.model import ScenarioConfig
    return generate_world(ScenarioConfig(seed=seed, scale=scale,
                                         samples_cap=cap))


def render_exhibits(result) -> None:
    """Tables 4/7/8/11 and the headline Monero share of ``result``."""
    import repro.analysis as analysis
    from repro.reporting import render

    render.render_table4(analysis.table4_currencies(result))
    render.render_table7(analysis.table7_pool_popularity(result))
    render.render_table8(analysis.table8_top_campaigns(result))
    render.render_table11(analysis.table11_infrastructure(result))
    analysis.headline_monero_fraction(result)


def pass_measure(world, workdir: str, index: int, sampler) -> dict:
    """Batch pipeline at the CLI default workers=1, then the exhibits
    and aggregation P/R: two steps (see :class:`Steps`), both latency."""
    from repro.analysis import aggregation_quality
    from repro.core.pipeline import MeasurementPipeline

    steps = Steps()
    start = time.monotonic()
    result = MeasurementPipeline(world, workers=1).run()
    steps.close(start)
    start = time.monotonic()
    render_exhibits(result)
    scores = aggregation_quality(world, result)
    steps.close(start)
    problems = (funnel_problems(result.stats, len(result.records))
                + quality_problems(scores))
    return {"seconds": steps.seconds(), "steps": steps.rates(sampler),
            "latency_steps": len(steps.spans),
            "samples": result.stats.collected,
            "digest": batch_digest(result.stats, result.campaigns,
                                   result.profiles),
            "problems": problems,
            "sizes": {"samples": len(world.samples),
                      "records": len(result.records),
                      "campaigns": len(result.campaigns)}}


# -- stream ------------------------------------------------------------


def setup_stream(seed: int, scale: float, cap: int):
    from repro.corpus.model import ScenarioConfig
    from repro.scale.stream import StreamingCorpus
    return StreamingCorpus(ScenarioConfig(seed=seed, scale=scale,
                                          samples_cap=cap))


#: ScalePipeline methods timed as steps of a stream pass: one stage-1
#: step per chunk, then stage 2 and recovery.  (``_flush_segment`` is
#: also called from inside them, so it cannot be a step of its own.)
_STREAM_STEPS = ("_stage1_chunk", "_stage2", "_recover")


def pass_stream(corpus, workdir: str, index: int, sampler) -> dict:
    """ScalePipeline at workers = nproc, default prefetch/shards/chunks.

    Every chunk, and every stage after them, is one step (see
    :class:`Steps`); a pass's latency is all of its steps."""
    from repro.analysis.validation import pairwise_clustering_scores
    from repro.scale.pipeline import ScalePipeline

    pass_dir = os.path.join(workdir, f"stream-{index}")
    try:
        pipeline = ScalePipeline(corpus, workdir=pass_dir,
                                 workers=os.cpu_count() or 1)
        steps = Steps()
        for name in _STREAM_STEPS:
            setattr(pipeline, name, steps.wrap(getattr(pipeline, name)))
        start = time.monotonic()
        result = pipeline.run()
        # the rest: last flush, profit profiles, sharded aggregation
        steps.close_rest(start)
        store_mib = _mib(_dir_bytes(os.path.join(pass_dir, "store")))
        records = len(result.store)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    truth = {sha: gt.campaign_id for gt in corpus.ground_truth
             for sha in gt.sample_hashes}
    predicted = {sha: c.campaign_id for c in result.campaigns
                 for sha in c.sample_hashes if sha in truth}
    scores = pairwise_clustering_scores(
        {sha: truth[sha] for sha in predicted}, predicted)
    problems = (funnel_problems(result.stats, records)
                + quality_problems(scores))
    return {"seconds": steps.seconds(), "steps": steps.rates(sampler),
            "latency_steps": len(steps.spans),
            "samples": result.stats.collected,
            "digest": batch_digest(result.stats, result.campaigns,
                                   result.profiles),
            "problems": problems,
            "sizes": {"samples": result.stats.collected,
                      "records": records,
                      "campaigns": len(result.campaigns)},
            "store_mib": store_mib,
            "spill_mib": _mib(result.spill_bytes)}


# -- ingest ------------------------------------------------------------


def pass_ingest(world, workdir: str, index: int, sampler) -> dict:
    """Dated 30-day batch replay with fsync'd journal and snapshots and
    the exhibits of its result, then a cold resume of a fresh service
    from the finished checkpoint.

    The steps (see :class:`Steps`) are every batch in feed order, each
    from the moment the service takes it up to its durable commit; then
    ``finalize``; the rest of the replay (scheduling, engine start);
    and the exhibits.  A pass's latency is its batches."""
    from repro.analysis.validation import aggregation_quality
    from repro.ingest import IngestionService
    from repro.ingest.service import diff_measurements
    from repro.perf.cache import clear_caches

    checkpoint = os.path.join(workdir, f"ingest-{index}")
    try:
        service = IngestionService(world, checkpoint, batch_days=BATCH_DAYS)
        steps = Steps()
        service._ingest_batch = steps.wrap(service._ingest_batch)
        service.finalize = steps.wrap(service.finalize)
        start = time.monotonic()
        first = service.run()
        steps.close_rest(start)
        start = time.monotonic()
        render_exhibits(first.result)
        steps.close(start)
        clear_caches()
        t1 = time.perf_counter()
        resumed = IngestionService(world, checkpoint, batch_days=BATCH_DAYS,
                                   resume=True).run()
        resume_s = time.perf_counter() - t1
    finally:
        shutil.rmtree(checkpoint, ignore_errors=True)
    result = first.result
    digest = batch_digest(result.stats, result.campaigns, result.profiles)
    problems = (funnel_problems(result.stats, len(result.records))
                + quality_problems(aggregation_quality(world, result)))
    problems += [f"resume differs: {d}"
                 for d in diff_measurements(result, resumed.result)]
    after = resumed.result
    if batch_digest(after.stats, after.campaigns, after.profiles) != digest:
        problems.append("resume digest differs")
    return {"seconds": steps.seconds(), "steps": steps.rates(sampler),
            "latency_steps": len(first.batches), "resume_s": resume_s,
            "samples": result.stats.collected, "digest": digest,
            "problems": problems,
            "sizes": {"samples": len(world.samples),
                      "records": len(result.records),
                      "campaigns": len(result.campaigns),
                      "batches": len(first.batches)}}


WORKLOADS = {
    "measure": (setup_measure, pass_measure),
    "stream": (setup_stream, pass_stream),
    "ingest": (setup_measure, pass_ingest),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-ns", type=int, required=True,
                        help="time.monotonic_ns() just before this "
                             "process was started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sampler = Sampler()
    started = time.monotonic()
    tracer = None
    spool = os.path.join(args.workdir, "spool")
    if args.trace:
        from tracing import Tracer, install_hooks
        os.makedirs(spool, exist_ok=True)
        tracer = Tracer()
        install_hooks(tracer, spool_dir=spool)

    from repro.common.memory import peak_rss_mib
    from repro.perf.cache import cache_stats, clear_caches
    from repro.perf.scan import reset_scan_stats, scan_stats

    setup, run_pass = WORKLOADS[args.workload]
    scale, cap = SIZES[args.workload]
    state = setup(args.seed, scale, cap)
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    out = {"setup_s": setup_s,
           "setup_speed": sampler.speed_over(started, time.monotonic())}
    if args.setup_only:
        sampler.stop()
        print(json.dumps(out), flush=True)
        return 0

    passes = []
    deadline = None
    while True:
        if passes and args.workload == "stream":
            state = setup(args.seed, scale, cap)   # a corpus streams once
        clear_caches()
        reset_scan_stats()
        result = run_pass(state, args.workdir, len(passes), sampler)
        result["problems"] += check_reference(args.workload, args.seed,
                                              result["digest"])
        result["ctph"] = cache_stats()["ctph"]
        result["scan"] = scan_stats()
        passes.append(result)
        if args.trace:
            break
        if deadline is None:   # the warm-up pass is done
            deadline = time.perf_counter() + args.seconds
        elif time.perf_counter() >= deadline:
            break
    sampler.stop()
    out.update(passes=passes, peak_rss_mib=peak_rss_mib(), scale=scale,
               samples_cap=cap)
    if tracer is not None:
        from tracing import layer_totals, merge_totals, read_spool
        layers = layer_totals(tracer.spans)
        worker_layers, worker_scan = read_spool(spool)
        merge_totals(layers, worker_layers)
        for key, value in worker_scan.items():
            passes[-1]["scan"][key] = passes[-1]["scan"].get(key, 0) + value
        out["layers"] = layers
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
