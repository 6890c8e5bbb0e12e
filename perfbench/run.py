"""The repository's benchmark: one workload per run, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 2019 \\
        --seconds 20 --trace 0

Workloads: ``stream`` (out-of-core ScalePipeline), ``ingest``
(checkpointed feed replay, exhibits and cold resume), ``serve``
(threat-intel API under open-loop load) and, run by hand only since it
is not in ``BENCHMARK.json``, ``measure`` (batch pipeline + exhibits).
Every workload runs in fresh processes started from here.  Set-up is
repeated in ``SETUPS`` fresh processes and its median reported; the
last of them goes on to the timed phase (on serve, every one of them
also runs a share of the closed-loop phase).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``, every time stated at the
reference host speed (see ``hostspeed.py``); with ``--trace 1`` the run is
made once untraced and once with the layer hooks installed (one set-up
and one pass), and the metrics are the per-layer ones, including the
traced / untraced ratio of every end-to-end metric.  The line before
it is the run stamp (machine, interpreter, source and input sizes).
See ``perfbench/README.md`` for what every metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from hostspeed import at_reference, step_medians

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: fresh processes that set up per run (median reported as setup_s).
SETUPS = 3
BATCH = ("measure", "stream", "ingest")
WORKLOADS = BATCH + ("serve",)

#: per-workload layers whose hooks must record calls in a traced run.
_GENERATION = ("corpus.generate", "binfmt.pseudo_code", "chain.emission")
_CORE = ("core.sanity", "core.extraction", "core.profit",
         "core.aggregation", "core.enrichment", "osint.stock_match",
         "fuzzyhash.ctph")
EXPECTED_LAYERS = {
    "measure": _GENERATION + _CORE + (
        "core.ancillary", "perf.parallel.stage1", "perf.parallel.stage2",
        "perf.parallel.engines", "analysis.exhibits"),
    "stream": _GENERATION + (
        "scale.chunk_gen", "core.sanity", "core.extraction", "core.profit",
        "scale.store.append", "scale.shards"),
    "ingest": _GENERATION + _CORE + (
        "core.ancillary", "perf.parallel.stage1", "perf.parallel.engines",
        "ingest.checkpoint.commit", "ingest.checkpoint.snapshot",
        "ingest.checkpoint.load", "analysis.exhibits"),
    "serve": _GENERATION + _CORE + (
        "serve.parse", "serve.auth", "serve.index.lookup",
        "serve.index.scan", "serve.encode", "serve.index.build"),
}
#: with more than one core the stream workload forks chunk pools and
#: prefetches chunks; on one core neither mechanism runs.
_STREAM_POOLED = ("perf.parallel.stage1", "perf.parallel.engines",
                  "scale.chunk_wait")


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    return env


def _source_digest() -> str:
    """sha256 over every file under src/ (the checkout has no git)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp(args, env: dict) -> dict:
    """Machine, interpreter and source identity of this run."""
    calibration = subprocess.run(
        [sys.executable, "-c", "from repro.common.calibrate import "
         "calibration_score; print(calibration_score())"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        check=True)
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": _git_sha(), "src_sha256": _source_digest(),
            "calibration_score": float(calibration.stdout.strip())}


# -- batch workloads ---------------------------------------------------


def _batch_child(args, env: dict, workdir: str, setup_only: bool,
                 trace: bool) -> dict:
    command = [sys.executable, os.path.join(HERE, "batch.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--workdir", workdir]
    if setup_only:
        command.append("--setup-only")
    if trace:
        command.append("--trace")
    spawned = time.monotonic_ns()
    proc = subprocess.run(command + ["--spawned-ns", str(spawned)],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=170, check=True)
    return json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])


def _pass_rates(passes: list, reference: bool = True) -> dict:
    """Throughput and latency of ``passes``, at the reference host speed
    unless ``reference`` is false.

    Batch passes are timed step by step, each step with the host's mean
    speed while it ran (``batch.Steps``).  Every pass runs
    the same steps in the same order, so each step's time is stated at
    the reference speed and its median across the passes is taken (see
    ``hostspeed.step_medians``).  Throughput is samples over the summed
    step medians; latency is the summed medians of the pass's latency
    steps (ingest: its batches, each to its durable commit; stream: all
    of them) per 1,000 samples, since world size varies between seeds.
    """
    steps = [p["steps"] for p in passes]
    if not reference:
        steps = [[[seconds, 1.0] for seconds, _rate in one]
                 for one in steps]
    medians = step_medians(steps)
    samples = passes[0]["samples"]
    latency = sum(medians[:passes[0]["latency_steps"]])
    return {"throughput_per_s": samples / sum(medians),
            "latency_ms": 1e6 * latency / samples}


def run_batch(args, env: dict, workdir: str, setups: int,
              trace: bool = False) -> dict:
    """``setups`` fresh set-ups; the last one runs the passes.

    Each child states its set-up time at the reference speed with the
    host's mean speed over it, and the median over the children is
    ``setup_s``.

    The first pass is the warm-up: its outputs are checked, but the
    figures come from the timed passes after it.  A traced child runs
    the first pass only, so ``first`` is what its overhead is taken
    against.
    """
    children = [_batch_child(args, env, workdir, True, trace)
                for _ in range(setups - 1)]
    run = _batch_child(args, env, workdir, False, trace)
    children.append(run)
    passes = run["passes"]
    timed = passes[1:] or passes
    problems = [p for one in passes for p in one["problems"]]
    return dict(
        _pass_rates(timed),
        setup_s=statistics.median(
            at_reference(c["setup_s"], c["setup_speed"])
            for c in children),
        # the same figures as measured, and the host's median speed
        raw=dict(_pass_rates(timed, reference=False),
                 setup_s=statistics.median(c["setup_s"] for c in children),
                 speed=statistics.median(rate for p in timed
                                         for _s, rate in p["steps"])),
        peak_rss_mib=run["peak_rss_mib"],
        first=_pass_rates(passes[:1]),
        attempted=len(passes),
        failed=sum(1 for p in passes if p["problems"]),
        problems=problems, run=run,
        sizes=dict(passes[-1]["sizes"], scale=run["scale"],
                   samples_cap=run["samples_cap"], passes=len(timed)),
        digest=passes[-1]["digest"],
    )


# -- serve -------------------------------------------------------------


def serve_metrics(args, env: dict, setups: int, trace: bool = False,
                  ladder: bool = False) -> dict:
    import serve_load
    out = serve_load.run_serve(ROOT, env, args.seed, args.seconds, trace,
                               setups, ladder)
    ref, closed = out["reference"], out["closed"]
    return {
        "setup_s": statistics.median(at_reference(seconds, rate)
                                     for seconds, rate
                                     in out["setup_times"]),
        # server CPU capacity at the reference rate, and the lone
        # closed-loop client's round trip at the reference host speed
        # (see serve_load.run_serve)
        "throughput_per_s": out["capacity_rps"],
        "latency_ms": closed["p50_ms"],
        # the same figures as measured, and the host's median speed in
        # the closed loop
        "raw": {"setup_s": statistics.median(
                    seconds for seconds, _ in out["setup_times"]),
                "throughput_per_s": out["raw_capacity_rps"],
                "latency_ms": closed["raw_p50_ms"],
                "speed": closed["speed"]},
        "peak_rss_mib": out["server"]["peak_rss_mib"],
        "attempted": out["attempted"], "failed": out["failed"],
        "problems": out["problems"], "run": out,
        "sizes": dict(out["sizes"], scale=serve_load.SCALE,
                      reference_rps=serve_load.REFERENCE_RATE),
        "digest": out["digest"],
        # which percentile each latency metric holds, over how many
        # samples (see loadgen.tail_percentile)
        "percentiles": {
            "latency_ms": {"pct": 50.0, "n": closed["requests"],
                           "value": closed["p50_ms"]},
            "p50_ms": {"pct": 50.0, "n": ref["lookups"],
                       "value": ref["p50_ms"]},
            "p99_ms": {"pct": ref["tail_pct"], "n": ref["lookups"],
                       "value": ref["tail_ms"]},
            "scan_p99_ms": {"pct": ref.get("scan_tail_pct", 0.0),
                            "n": ref.get("scans", 0),
                            "value": ref.get("scan_tail_ms", 0.0)}},
    }


# -- metrics -----------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layers(workload: str, run: dict) -> dict:
    """Per-layer totals of a traced run (the server's for serve)."""
    source = run if workload in BATCH else run["server"]
    return source.get("layers") or {}


def per_layer(workload: str, plain: dict, traced: dict) -> dict:
    """Every per-layer metric, 0 where the layer does not run."""
    run = traced["run"]
    layers = _layers(workload, run)
    values = {}
    for layer, entry in layers.items():
        values[f"{layer}.busy_s"] = entry["busy_s"]
        values[f"{layer}.calls"] = entry["calls"]
        values[f"{layer}_s"] = entry["wall_s"]
    values["perf.parallel.engines"] = layers.get(
        "perf.parallel.engines", {}).get("calls", 0)
    builds = layers.get("serve.index.build", {})
    values["serve.index.build_s"] = _ratio(builds.get("wall_s", 0.0),
                                           builds.get("calls", 0))
    if workload in BATCH:
        last = run["passes"][-1]
        ctph, scan = last["ctph"], last["scan"]
        values["perf.cache.ctph_hit_ratio"] = _ratio(
            ctph["hits"], ctph["hits"] + ctph["misses"])
        values["perf.scan.scans"] = scan["kernel_scans"]
        values["perf.scan.rules_skipped_ratio"] = _ratio(
            scan["rules_skipped"],
            scan["rules_skipped"] + scan["rules_evaluated"])
        values["scale.store_mib"] = last.get("store_mib", 0.0)
        values["scale.spill_mib"] = last.get("spill_mib", 0.0)
        timed = plain["run"]["passes"][1:]
        values["samples_per_s"] = (sum(p["samples"] for p in timed)
                                   / sum(p["seconds"] for p in timed))
        if workload == "ingest":
            values["resume_s"] = statistics.median(
                p["resume_s"] for p in timed)
    else:
        values["loadgen.sent"] = run["attempted"]
        values["loadgen.failed"] = run["failed"]
        values["loadgen.lag_p99_ms"] = run["lag_p99_ms"]
        values["serve.timed_core_calls"] = run["server"].get(
            "timed_core_calls", 0)
        values["max_rps"] = plain["run"]["max_rps"]
        for name, entry in plain["percentiles"].items():
            if name == "latency_ms":   # an end-to-end metric
                continue
            values[name] = entry["value"]
            values[f"{name[:-3]}.n"] = entry["n"]
            if name != "p50_ms":
                values[f"{name[:-3]}.pct"] = entry["pct"]
    for name, value in plain["raw"].items():
        values["host.speed" if name == "speed" else f"raw.{name}"] = value
    values["error_rate"] = _ratio(plain["failed"], plain["attempted"])
    for name in ("setup_s", "throughput_per_s", "latency_ms",
                 "peak_rss_mib"):
        num, den = traced[name], plain[name]
        if workload in BATCH and name in plain["first"]:
            # a traced batch child runs only the first pass after
            # set-up: compare it with the untraced first pass
            num, den = traced["first"][name], plain["first"][name]
        values[f"overhead.{name}"] = _ratio(num, den)
    return values


def trace_problems(workload: str, traced: dict) -> list:
    """The zero-calls check plus each workload's bypass check."""
    from tracing import missing_layers
    run = traced["run"]
    layers = _layers(workload, run)
    expected = list(EXPECTED_LAYERS[workload])
    if workload == "stream" and (os.cpu_count() or 1) > 1:
        expected += _STREAM_POOLED
    problems = [f"layer hook {name} recorded zero calls"
                for name in missing_layers(layers, expected)]
    if workload == "stream" and layers.get("osint.stock_match"):
        problems.append("stream ran stock-tool matching")
    if workload == "serve" and run["server"].get("timed_core_calls"):
        problems.append("serve ran core stages in its timed phase")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no source tree at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    env = _env()
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        run_stamp = stamp(args, env)
        if args.workload in BATCH:
            plain = run_batch(args, env, workdir, SETUPS)
        else:
            # the ladder climb feeds only the per-layer max_rps
            plain = serve_metrics(args, env, SETUPS,
                                  ladder=bool(args.trace))
        problems = list(plain["problems"])
        attempted, failed = plain["attempted"], plain["failed"]
        if args.trace:
            if args.workload in BATCH:
                traced = run_batch(args, env, workdir, 1, trace=True)
            else:
                traced = serve_metrics(args, env, 1, trace=True)
            checks = trace_problems(args.workload, traced)
            problems += checks + traced["problems"]
            # the trace checks count as one more operation
            attempted += traced["attempted"] + 1
            failed += traced["failed"] + (1 if checks else 0)
            values = per_layer(args.workload, plain, traced)
            wanted = spec["per_layer"]
        else:
            values = plain
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    run_stamp["sizes"] = plain["sizes"]
    run_stamp["digest"] = plain["digest"]
    if "percentiles" in plain:
        run_stamp["percentiles"] = plain["percentiles"]
    run_stamp["problems"] = problems[:20]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"stamp": run_stamp}))
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
