"""The benchmark's server launcher for the ``serve`` workload.

Runs in its own process: builds the world, runs the batch pipeline,
builds index generation 1 and serves it with the single-worker
:class:`~repro.serve.http.BackgroundServer`.  When ready it prints one
``READY`` line holding the port and the query candidates, each with
the answer the pipeline result implies.  It then obeys one command per
stdin line:

``mark``     the timed phase starts now (for the trace's core-call check)
``cpu``      print one ``CPU`` line: this process's CPU seconds so far
``probe``    start probing the host's speed on a thread (``hostspeed``)
``unprobe``  stop; print one ``SPEED`` line: mean speed, probe CPU s
``rebuild``  build generation 2 on this (non-loop) thread and swap it in
``stats``    print one ``STATS`` line: peak RSS and per-layer totals
``quit``     stop serving and exit (so does end of input)

Usage (normally started by ``run.py``)::

    PYTHONPATH=src python3 perfbench/server.py --seed 2019 --scale 0.01 \\
        --samples-cap 60
"""

import argparse
import json
import sys
import threading
import time

from hostspeed import Sampler

API_KEY = "perfbench-key"
#: seconds between two host speed probes while sampling.
PROBE_EVERY_S = 0.1


def _plan(result) -> dict:
    """Query candidates with the answers the pipeline result implies."""
    by_sample, by_wallet = {}, {}
    for campaign in result.campaigns:
        for sha in campaign.sample_hashes:
            by_sample[sha] = campaign.campaign_id
        for identifier in campaign.identifiers:
            by_wallet[identifier] = campaign.campaign_id
    wallets, domains = set(), set()
    for record in result.records:
        wallets.update(record.identifiers)
        domains.update(record.dns_rr)
    return {
        "hash": [[r.sha256, by_sample.get(r.sha256)]
                 for r in sorted(result.records, key=lambda r: r.sha256)],
        "wallet": [[w, by_wallet.get(w)] for w in sorted(wallets)],
        "campaign": [[c.campaign_id, c.campaign_id]
                     for c in result.campaigns],
        "domain": [[d, None] for d in sorted(domains)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--samples-cap", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    sampler = Sampler()
    started = time.monotonic()

    tracer = None
    if args.trace:
        from tracing import Tracer, install_hooks
        tracer = Tracer()
        install_hooks(tracer)

    import repro.serve.index as serve_index
    from repro.common.memory import peak_rss_mib
    from repro.core.pipeline import MeasurementPipeline
    from repro.corpus.generator import generate_world
    from repro.corpus.model import ScenarioConfig
    from repro.serve.app import IntelService
    from repro.serve.auth import ApiKeyRegistry
    from repro.serve.http import BackgroundServer

    world = generate_world(ScenarioConfig(seed=args.seed, scale=args.scale,
                                          samples_cap=args.samples_cap))
    result = MeasurementPipeline(world).run()
    source = f"perfbench seed={args.seed} scale={args.scale}"
    t0 = time.perf_counter()
    index = serve_index.build_index(result, generation=1, source=source)
    build_s = time.perf_counter() - t0
    registry = ApiKeyRegistry()
    registry.add(API_KEY, name="perfbench")
    service = IntelService(index, registry)
    server = BackgroundServer(service.handle).start()
    marked_ns = None
    ready = {"port": server.port, "build_s": build_s,
             "plan": _plan(result), "index": index.counts(),
             "samples": len(world.samples), "records": len(result.records),
             "campaigns": len(result.campaigns),
             # the host's mean speed over set-up (hostspeed)
             "setup_speed": sampler.speed_over(started, time.monotonic())}
    sampler.stop()
    print("READY " + json.dumps(ready), flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                marked_ns = time.perf_counter_ns()
                print("MARKED", flush=True)
            elif command == "cpu":
                print("CPU " + json.dumps(time.process_time()), flush=True)
            elif command == "probe":
                sampler = Sampler(PROBE_EVERY_S)
                started = time.monotonic()
            elif command == "unprobe":
                sampler.stop()
                rate = sampler.speed_over(started, time.monotonic())
                print("SPEED " + json.dumps({"speed": rate,
                                             "cpu_s": sampler.cpu_s}),
                      flush=True)
            elif command == "rebuild":
                t0 = time.perf_counter()
                second = serve_index.build_index(result, generation=2,
                                                 source=source)
                swapped = threading.Event()

                def install(index=second, done=swapped) -> None:
                    service.swap(index)
                    done.set()

                server.call_soon(install)
                swapped.wait(timeout=60)
                print("REBUILT " + json.dumps(
                    {"build_s": time.perf_counter() - t0}), flush=True)
            elif command == "stats":
                stats = {"peak_rss_mib": peak_rss_mib(),
                         "generation": service.generation}
                if tracer is not None:
                    stats.update(_trace_stats(tracer, marked_ns))
                print("STATS " + json.dumps(stats), flush=True)
            elif command == "quit":
                break
    finally:
        server.stop()
    return 0


def _trace_stats(tracer, marked_ns) -> dict:
    """Per-layer totals plus core-layer calls made during the timed
    phase outside an index rebuild (there should be none)."""
    from tracing import layer_totals
    spans = list(tracer.spans)
    names = {sid: name for sid, _p, name, _s, _e in spans}
    parents = {sid: parent for sid, parent, _n, _s, _e in spans}

    def under_build(sid: int) -> bool:
        while sid:
            if names.get(sid) == "serve.index.build":
                return True
            sid = parents.get(sid, 0)
        return False

    timed_core = sum(
        1 for sid, _p, name, start, _e in spans
        if marked_ns is not None and start >= marked_ns
        and name.startswith("core.") and not under_build(sid))
    return {"layers": layer_totals(spans), "timed_core_calls": timed_core}


if __name__ == "__main__":
    sys.exit(main())
