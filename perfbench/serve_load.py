"""The ``serve`` workload: a launched server and an open-loop generator.

The server (``server.py``) runs in its own process; this module is the
generator side.  It plans a seeded query mix from the candidates the
server reports, checks every planned query once (the digest), then
runs these phases:

1. ``closed``, on every set-up server of the run: a lone client on one
   keep-alive connection, on the server's core, sends each request of
   the mix as soon as the previous answer has arrived.  Its median
   round trip is the request latency a caller sees; its median over the
   servers is the gated latency (see README for why not the open
   loop's).  The phases below run on the last server;
2. ``reference``: open-loop load at the reference rate over at most
   ``nproc`` pipelined keep-alive connections, where the server's
   requests per CPU-second (its capacity, the gated throughput),
   lookup p50/p99 and the scan tail latency are taken;
3. ``rebuild``: the same rate while the server rebuilds its index on a
   server thread and swaps in generation 2;
4. ``swapped``: the same rate on generation 2;
5. only when asked (the untraced half of ``--trace 1``), the ladder:
   increasing fixed rates, one step each, until a step misses the
   latency limit, fails a request or lets the backlog grow.
   ``max_rps`` is the achieved rate of the highest step that met it.

Every response is checked against the plan: status, found flag,
campaign id, and exactly one generation from {1, 2}.
"""

import asyncio
import http.client
import json
import os
import random
import select
import socket
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import quote

from digest import check_reference, serve_digest
from hostspeed import at_reference, speed
from loadgen import LoadPhase, Request, percentile, phase_summary, \
    poisson_schedule, run_phase, tail_percentile

__all__ = ["plan_queries", "run_serve"]

#: world the server measures and indexes (ScenarioConfig fields): the
#: ingest workload's, whose size varies little between seeds.
SCALE, SAMPLES_CAP = 0.015, 20
#: the fixed ladder of arrival rates (req/s): 5% apart from 1000/s.
LADDER = tuple(round(1000.0 * 1.05 ** k, 1) for k in range(64))
#: arrival rate (req/s) at which p50/p99 are reported: rung 16, 2183/s.
#: On a 2-vCPU VM the median ``max_rps`` was 6536/s over seeds 1-5 but
#: the machine's speed halves for minutes at a time; at rung 24 (about
#: half of 6536) the generator fell behind in one run of ten, so this is
#: about half the capacity of the machine's slow phases (see README).
REFERENCE_RATE = LADDER[16]
#: seconds between two host speed probes of the closed-loop client.
PROBE_EVERY_S = 0.05
#: shares of ``--seconds`` spent in the closed-loop phase and in the
#: open-loop reference, rebuild and swapped phases; the ladder, when
#: climbed, takes LADDER_SHARE more.
CLOSED_SHARE = 0.5
PHASE_SHARES = {"reference": 0.3, "rebuild": 0.12, "swapped": 0.08}
LADDER_SHARE = 0.55
#: the climb tries every COARSE_STRIDE-th rung, then bisects the gap
#: below the first rung that fails; the step budget covers both.
COARSE_STRIDE = 8
_COARSE_STEPS, _FINE_STEPS = 8, 3
#: p99 lookup latency limit a ladder step must meet (ms).
LATENCY_LIMIT_MS = 50.0
#: generator lateness p99 above which a phase is invalid (ms).
LAG_LIMIT_MS = 20.0
#: seconds past a phase's last due time before a request times out.
TIMEOUT_S = 2.0
#: every SCAN_EVERY-th request is a 16-IoC /v1/scan.
SCAN_EVERY = 10
#: planned hits and misses per lookup kind; share of lookups that hit.
HITS_PER_KIND, MISSES_PER_KIND, HIT_SHARE = 48, 16, 0.8
API_KEY = "perfbench-key"
_KINDS = ("hash", "wallet", "domain", "campaign")


# -- planning ----------------------------------------------------------


def _miss(rng: random.Random, kind: str, index: int, campaigns: int):
    token = "%016x" % rng.getrandbits(64)
    if kind == "hash":
        return token * 4
    if kind == "wallet":
        return "4perfbenchmiss" + token
    if kind == "domain":
        return f"miss-{token}.invalid"
    return campaigns + 1000 + index


def plan_queries(rng: random.Random, candidates: Dict[str, list]
                 ) -> Tuple[List[dict], List[dict]]:
    """Seeded lookups (hits and misses) and 16-IoC scan bodies.

    Each lookup carries its expected answer: found or not, and for a
    hit the campaign id the pipeline result implies.
    """
    lookups: List[dict] = []
    for kind in _KINDS:
        pool = candidates[kind]
        for value, campaign in rng.sample(pool, min(HITS_PER_KIND,
                                                    len(pool))):
            lookups.append({"kind": kind, "value": value, "hit": True,
                            "campaign": campaign})
        for i in range(MISSES_PER_KIND):
            lookups.append({"kind": kind, "hit": False, "campaign": None,
                            "value": _miss(rng, kind, i,
                                           len(candidates["campaign"]))})
    hits = {kind: [q["value"] for q in lookups
                   if q["kind"] == kind and q["hit"]] for kind in _KINDS}
    scans = []
    for _ in range(8):
        known = (rng.sample(hits["hash"], min(5, len(hits["hash"])))
                 + rng.sample(hits["wallet"], min(4, len(hits["wallet"])))
                 + rng.sample(hits["domain"], min(4, len(hits["domain"]))))
        misses = [_miss(rng, kind, 0, 0) for kind in
                  ("hash", "wallet", "domain")]
        iocs = known + misses
        rng.shuffle(iocs)
        scans.append({"iocs": iocs, "known": sorted(set(known))})
    return lookups, scans


def _path(query: dict) -> str:
    return f"/v1/{query['kind']}/{quote(str(query['value']), safe='@.')}"


def _payload(query: dict) -> bytes:
    if "iocs" in query:
        body = json.dumps({"iocs": query["iocs"]}).encode("utf-8")
        head = (f"POST /v1/scan HTTP/1.1\r\nHost: perfbench\r\n"
                f"X-Api-Key: {API_KEY}\r\nContent-Type: application/json"
                f"\r\nContent-Length: {len(body)}\r\n\r\n")
        return head.encode("ascii") + body
    return (f"GET {_path(query)} HTTP/1.1\r\nHost: perfbench\r\n"
            f"X-Api-Key: {API_KEY}\r\n\r\n").encode("ascii")


def check_answer(query: dict, status: int, payload: Any) -> Optional[str]:
    """None if the response is the planned answer, else why not."""
    if not isinstance(payload, dict):
        return "body is not a JSON object"
    if payload.get("generation") not in (1, 2):
        return f"generation {payload.get('generation')!r} not in {{1, 2}}"
    if "iocs" in query:
        if status != 200:
            return f"scan status {status}"
        fired = [hit.get("indicator") for hit in payload.get("hits", [])]
        blob = "\n".join(query["iocs"])
        if not set(query["known"]) <= set(fired):
            return "scan missed a known indicator"
        if any(not isinstance(i, str) or i not in blob for i in fired):
            return "scan fired an indicator not in the submission"
        return None
    if not query["hit"]:
        return None if status == 404 and payload.get("found") is False \
            else f"planned miss answered {status}"
    if status != 200 or payload.get("found") is not True:
        return f"planned hit answered {status}"
    if query["kind"] != "domain" and \
            query["campaign"] != _answer_key(query["kind"], payload):
        return "campaign id differs from the pipeline result"
    return None


def _answer_key(kind: str, payload: dict):
    intel = payload.get("intel") or {}
    if kind == "domain":
        return intel.get("campaigns")
    return intel.get("campaign_id")


def traffic_mix(rng: random.Random, count: int, lookups: List[dict],
                scans: List[dict]) -> List[int]:
    """Indices into ``lookups + scans`` of ``count`` requests in the
    benchmark's traffic mix."""
    hits = [i for i, q in enumerate(lookups) if q["hit"]]
    misses = [i for i, q in enumerate(lookups) if not q["hit"]]
    mix = []
    for n in range(count):
        if n % SCAN_EVERY == SCAN_EVERY - 1:
            mix.append(len(lookups) + rng.randrange(len(scans)))
        else:
            mix.append(rng.choice(hits if rng.random() < HIT_SHARE
                                  else misses))
    return mix


def build_phase(rng: random.Random, rate: float,
                duration_s: float, lookups: List[dict], scans: List[dict],
                connections: int) -> LoadPhase:
    """A constant-rate phase with the benchmark's traffic mix."""
    phase = LoadPhase(rate, duration_s)
    queries = lookups + scans
    due_times = poisson_schedule(rng, rate, duration_s)
    mix = traffic_mix(rng, len(due_times), lookups, scans)
    for n, (due, index) in enumerate(zip(due_times, mix)):
        query = queries[index]
        phase.requests.append(Request(
            due_ns=due, conn=n % connections, payload=_payload(query),
            query=index, scan="iocs" in query))
    return phase


def _read_response(stream) -> Tuple[int, bytes]:
    """Status and body of one HTTP/1.1 response on ``stream``."""
    status_line = stream.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    length = 0
    while True:
        header = stream.readline()
        if header in (b"\r\n", b""):
            break
        name, _, value = header.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return int(status_line.split()[1]), stream.read(length)


def closed_loop(port: int, queries: List[dict], mix: List[int],
                duration_s: float
                ) -> Tuple[List[Tuple[float, float]], List[str]]:
    """Round trips of a lone client on one keep-alive connection,
    cycling through ``mix`` for ``duration_s``, and what was wrong with
    any answer (each checked against its plan).

    Every PROBE_EVERY_S the client probes the host's speed (see
    ``hostspeed``), between two requests; each round trip comes as
    ``(ms, speed)`` with the speed of the probe made last before it."""
    payloads = [_payload(query) for query in queries]
    round_trips: List[Tuple[float, float]] = []
    problems: List[str] = []
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stream = sock.makefile("rb")
        deadline = time.perf_counter_ns() + int(duration_s * 1e9)
        probe_every = int(PROBE_EVERY_S * 1e9)
        next_probe = 0
        n = 0
        while True:
            index = mix[n % len(mix)]
            start = time.perf_counter_ns()
            if start >= next_probe:
                rate = speed()
                start = time.perf_counter_ns()
                next_probe = start + probe_every
            if start >= deadline:
                break
            sock.sendall(payloads[index])
            status, body = _read_response(stream)
            round_trips.append(((time.perf_counter_ns() - start) / 1e6,
                                rate))
            try:
                payload = json.loads(body)
            except ValueError:
                payload = None
            problem = check_answer(queries[index], status, payload)
            if problem is None and payload["generation"] != 1:
                problem = f"generation {payload['generation']} before " \
                          "the rebuild"
            if problem:
                problems.append(problem)
            n += 1
        stream.close()
    return round_trips, problems


# -- the server process ------------------------------------------------


def _cores() -> Tuple[set, set]:
    """(server cores, generator cores): one core each when there are
    two or more, so neither process steals the other's time slices."""
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return set(cores), set(cores)
    return {cores[0]}, {cores[1]}


class ServerProcess:
    """``server.py`` in a child process, driven over stdin/stdout."""

    def __init__(self, root: str, env: dict, seed: int, trace: bool
                 ) -> None:
        here = os.path.dirname(os.path.abspath(__file__))
        self.spawned_ns = time.monotonic_ns()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(here, "server.py"),
             "--seed", str(seed), "--scale", str(SCALE),
             "--samples-cap", str(SAMPLES_CAP),
             "--trace", "1" if trace else "0"],
            cwd=root, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE)
        os.sched_setaffinity(self.proc.pid, _cores()[0])
        self._buffer = b""

    def command(self, text: str) -> None:
        self.proc.stdin.write(text.encode("ascii") + b"\n")
        self.proc.stdin.flush()

    def expect(self, prefix: str, timeout_s: float = 120.0) -> str:
        """The payload of the next stdout line starting with ``prefix``."""
        deadline = time.monotonic() + timeout_s
        fd = self.proc.stdout.fileno()
        while True:
            while b"\n" in self._buffer:
                line, self._buffer = self._buffer.split(b"\n", 1)
                text = line.decode("utf-8")
                if text.startswith(prefix):
                    return text[len(prefix):].strip()
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"server did not print {prefix}")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise RuntimeError(f"server exited before {prefix}")
                self._buffer += chunk

    def cpu_seconds(self) -> float:
        """CPU time the server process has used so far."""
        self.command("cpu")
        return float(self.expect("CPU"))

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.command("quit")
                self.proc.stdin.close()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()


def _get(port: int, query: dict) -> Tuple[int, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        if "iocs" in query:
            conn.request("POST", "/v1/scan",
                         body=json.dumps({"iocs": query["iocs"]}),
                         headers={"X-Api-Key": API_KEY})
        else:
            conn.request("GET", _path(query),
                         headers={"X-Api-Key": API_KEY})
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


def start_and_probe(root: str, env: dict, seed: int, trace: bool
                    ) -> Tuple[ServerProcess, dict, float]:
    """Start a server; set-up ends at its first correct answer.  The
    server reports the host's mean speed over its set-up
    (``ready["setup_speed"]``)."""
    server = ServerProcess(root, env, seed, trace)
    try:
        ready = json.loads(server.expect("READY"))
        sha, campaign = ready["plan"]["hash"][0]
        probe = {"kind": "hash", "value": sha, "hit": True,
                 "campaign": campaign}
        status, payload = _get(ready["port"], probe)
        setup_s = (time.monotonic_ns() - server.spawned_ns) / 1e9
        problem = check_answer(probe, status, payload)
        if problem:
            raise RuntimeError(f"first answer wrong: {problem}")
    except BaseException:
        server.stop()
        raise
    return server, ready, setup_s


# -- the run -----------------------------------------------------------


def run_closed(server: ServerProcess, ready: dict, seed: int,
               duration_s: float) -> Dict[str, Any]:
    """The closed-loop phase: the lone client, on the server's core so
    that each hand-off is a context switch rather than the wake-up of
    an idle virtual CPU, for ``duration_s``."""
    rng = random.Random(seed)
    lookups, scans = plan_queries(rng, ready["plan"])
    generator_cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, _cores()[0])
    try:
        round_trips, problems = closed_loop(
            ready["port"], lookups + scans,
            traffic_mix(rng, 4096, lookups, scans), duration_s)
    finally:
        os.sched_setaffinity(0, generator_cores)
    return {"p50_ms": percentile([at_reference(ms, rate)
                                  for ms, rate in round_trips], 50),
            "raw_p50_ms": percentile([ms for ms, _ in round_trips], 50),
            "speed": statistics.median(rate for _, rate in round_trips),
            "requests": len(round_trips), "problems": problems}


def run_serve(root: str, env: dict, seed: int, seconds: float,
              trace: bool, setups: int, ladder: bool) -> Dict[str, Any]:
    """Set up ``setups`` servers and run the closed-loop phase on each,
    for CLOSED_SHARE of ``seconds`` in all; on the last one, run the
    reference, rebuild and swapped phases too and, if ``ladder``, the
    ladder climb over LADDER_SHARE more.

    The closed-loop latency is the median over the servers: a run of
    the machine's slow spells then has to cover most of the run's
    servers to move it."""
    closed_s = CLOSED_SHARE * seconds / setups
    setup_times, closed = [], []
    for _ in range(setups - 1):
        server, ready, setup_s = start_and_probe(root, env, seed, trace)
        setup_times.append([setup_s, ready["setup_speed"]])
        try:
            closed.append(run_closed(server, ready, seed, closed_s))
        finally:
            server.stop()
    server, ready, setup_s = start_and_probe(root, env, seed, trace)
    setup_times.append([setup_s, ready["setup_speed"]])
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, _cores()[1])
    try:
        out = _measure(server, ready, seed, seconds, closed_s, ladder)
        server.command("stats")
        stats = json.loads(server.expect("STATS"))
    finally:
        os.sched_setaffinity(0, allowed)
        server.stop()
    for run in closed:   # the set-up servers' closed loops
        out["attempted"] += run["requests"]
        out["failed"] += len(run["problems"])
        out["problems"] += run["problems"][:20]
    closed.append(out["closed"])
    out["closed"] = {
        name: statistics.median(c[name] for c in closed)
        for name in ("p50_ms", "raw_p50_ms", "speed")}
    out["closed"]["requests"] = sum(c["requests"] for c in closed)
    out["digest"] = serve_digest(out.pop("answers"))
    mismatch = check_reference("serve", seed, out["digest"])
    # the digest comparison is one more operation
    out["attempted"] += 1
    out["failed"] += 1 if mismatch else 0
    out["problems"] += mismatch
    out.update(setup_times=setup_times, server=stats,
               sizes={"samples": ready["samples"],
                      "records": ready["records"],
                      "campaigns": ready["campaigns"],
                      "index": ready["index"]},
               build_s=ready["build_s"])
    return out


def climb_ladder(try_rate: Callable[[float], dict]) -> List[dict]:
    """Step summaries of the climb, in the order the steps ran.

    Every ``COARSE_STRIDE``-th rung is tried until one fails to meet
    its rate (or the coarse budget runs out); the rungs between the
    last pass and that failure are then bisected.  The highest rung
    that met its rate is the ladder's result.
    """
    steps: List[dict] = []
    good, bad = -1, None
    for rung in range(0, len(LADDER), COARSE_STRIDE)[:_COARSE_STEPS]:
        steps.append(try_rate(LADDER[rung]))
        if not _passed(steps[-1]):
            bad = rung
            break
        good = rung
    if bad is None:
        return steps
    while bad - good > 1:
        mid = (good + bad) // 2
        steps.append(try_rate(LADDER[mid]))
        if _passed(steps[-1]):
            good = mid
        else:
            bad = mid
    return steps


def _passed(summary: dict) -> bool:
    return bool(summary["meets"] and summary["valid"])


def _measure(server: ServerProcess, ready: dict, seed: int,
             seconds: float, closed_s: float, ladder: bool
             ) -> Dict[str, Any]:
    port = ready["port"]
    rng = random.Random(seed)
    lookups, scans = plan_queries(rng, ready["plan"])
    queries = lookups + scans
    problems: List[str] = []
    answers = {}
    wrong = 0
    for query in lookups:   # every planned query once: the digest
        status, payload = _get(port, query)
        problem = check_answer(query, status, payload)
        if problem:
            wrong += 1
            problems.append(f"{query['kind']} {query['value']}: {problem}")
        answers[f"{query['kind']}:{query['value']}"] = [
            status == 200, _answer_key(query["kind"], payload or {})]

    server.command("mark")
    server.expect("MARKED")
    closed = run_closed(server, ready, seed, closed_s)
    wrong += len(closed["problems"])
    problems += closed.pop("problems")[:20]

    connections = max(1, min(os.cpu_count() or 1, 2))
    phases = {name: build_phase(rng, REFERENCE_RATE, share * seconds,
                                lookups, scans, connections)
              for name, share in PHASE_SHARES.items()}
    server.command("probe")
    cpu_before = server.cpu_seconds()
    asyncio.run(run_phase("127.0.0.1", port, phases["reference"],
                          connections, TIMEOUT_S))
    reference_cpu_s = server.cpu_seconds() - cpu_before
    server.command("unprobe")
    probed = json.loads(server.expect("SPEED"))
    reference_cpu_s -= probed["cpu_s"]
    asyncio.run(run_phase("127.0.0.1", port, phases["rebuild"],
                          connections, TIMEOUT_S,
                          at_start=lambda: server.command("rebuild")))
    rebuilt = json.loads(server.expect("REBUILT"))
    asyncio.run(run_phase("127.0.0.1", port, phases["swapped"],
                          connections, TIMEOUT_S))

    def checker(generations: set) -> Callable[[Request], bool]:
        def ok(request: Request) -> bool:
            try:
                payload = json.loads(request.body)
            except ValueError:
                payload = None
            problem = check_answer(queries[request.query], request.status,
                                   payload)
            if problem is None and payload["generation"] not in generations:
                problem = (f"generation {payload['generation']} outside "
                           f"{sorted(generations)} for this phase")
            if problem and len(problems) < 20:
                problems.append(problem)
            return problem is None
        return ok

    # generation 1 until the rebuild, either during it, 2 once swapped
    summaries = {
        name: phase_summary(phases[name], checker(generations),
                            LATENCY_LIMIT_MS, LAG_LIMIT_MS)
        for name, generations in (("reference", {1}), ("rebuild", {1, 2}),
                                  ("swapped", {2}))}
    steps: List[dict] = []
    if ladder:
        ok = checker({2})
        step_s = max(0.25, LADDER_SHARE * seconds
                     / (_COARSE_STEPS + _FINE_STEPS))

        def try_rate(rate: float) -> dict:
            step = build_phase(rng, rate, step_s, lookups, scans,
                               connections)
            asyncio.run(run_phase("127.0.0.1", port, step, connections,
                                  TIMEOUT_S))
            phases[f"step-{len(steps)}"] = step
            return phase_summary(step, ok, LATENCY_LIMIT_MS, LAG_LIMIT_MS)

        steps = climb_ladder(try_rate)
    sent = (len(lookups) + closed["requests"]
            + sum(len(p.requests) for p in phases.values()))
    failed = wrong + sum(s["failed"]
                         for s in list(summaries.values()) + steps)
    passing = sorted((s for s in steps if _passed(s)),
                     key=lambda s: s["rate"])
    ref = summaries["reference"]
    # the reference phase's validity is one more operation
    sent += 1
    if not ref["valid"]:
        failed += 1
        problems.append(f"generator fell behind in the reference phase "
                        f"(lateness p{ref['lag_pct']:g} "
                        f"{ref['lag_ms']:.1f} ms)")
    lateness = [max(0.0, r.lateness_ms) for p in phases.values()
                for r in p.requests if r.sent_ns]
    return {
        "problems": problems, "answers": answers,
        "attempted": sent, "failed": failed,
        "max_rps": (passing[-1]["achieved_rps"] if passing
                    else (ref["achieved_rps"] if ladder else 0.0)),
        "closed": closed,
        # requests the server completes per second of its own CPU time
        # at the reference rate, as measured and at the reference host
        # speed (the server probed the host while it served)
        "raw_capacity_rps": len(phases["reference"].requests)
        / reference_cpu_s,
        "capacity_rps": len(phases["reference"].requests)
        / at_reference(reference_cpu_s, probed["speed"]),
        "ladder": steps,
        "reference": ref, "rebuild": summaries["rebuild"],
        "swapped": summaries["swapped"],
        "rebuild_build_s": rebuilt["build_s"],
        "lag_p99_ms": tail_percentile(lateness)["value"],
    }
