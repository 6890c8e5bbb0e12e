"""In-memory span tracer and the per-layer hooks of the benchmark.

The tracer records one span (id, parent id, name, start, end) around
every call into a hooked entry point and keeps the spans in memory
until the run ends.  A layer's *self time* is its spans' durations
minus the part covered by their child spans, so nested layers (a
``pseudo_code`` call inside world generation) are not counted twice.

Hooks are installed from the benchmark's own files: each one replaces
the class or module attribute the caller resolves at call time (for
example ``repro.corpus.generator.pseudo_code`` or
``StockToolCatalog.match``) with a wrapper.  Nothing under ``src/`` is
edited.  A function imported by name into other modules is rebound in
every loaded ``repro`` module that holds it, so each call site sees the
wrapper.

Fork-pool workers inherit the wrappers.  Their spans stay in the
worker's memory, so the pool task functions are wrapped once more to
append the worker's per-layer totals to a JSONL file after each task;
the parent folds those files in when the run ends.
"""

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["LAYERS", "Tracer", "install_hooks", "layer_totals",
           "merge_totals", "missing_layers", "read_spool"]

#: layer name -> entry points, as "module:attr" or "module:Class.attr".
#: The layer names are the per-layer metric prefixes in BENCHMARK.json.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "corpus.generate": (
        "repro.corpus.generator:EcosystemGenerator.generate",
        "repro.corpus.generator:EcosystemGenerator.build_skeleton",
    ),
    "binfmt.pseudo_code": ("repro.binfmt.codegen:pseudo_code",),
    "chain.emission": (
        "repro.chain.emission:EmissionSchedule.circulating_supply",
        "repro.chain.emission:EmissionSchedule.block_reward",
        "repro.chain.emission:EmissionSchedule.daily_emission",
        "repro.chain.emission:EmissionSchedule.fraction_of_supply",
        "repro.chain.emission:network_hashrate_hs",
    ),
    "scale.chunk_gen": (
        "repro.corpus.generator:EcosystemGenerator.stream_chunks",
    ),
    "scale.chunk_wait": ("repro.scale.stream:ChunkPrefetcher.__next__",),
    "perf.parallel.stage1": (
        "repro.perf.parallel:ParallelExtractionEngine.map_stage1",),
    "perf.parallel.stage2": (
        "repro.perf.parallel:ParallelExtractionEngine.map_stage2",),
    "perf.parallel.engines": (
        "repro.perf.parallel:ParallelExtractionEngine.__init__",),
    "core.sanity": (
        "repro.core.sanity:SanityChecker.is_executable",
        "repro.core.sanity:SanityChecker.is_malware",
        "repro.core.sanity:SanityChecker.is_miner",
    ),
    "core.extraction": (
        "repro.core.extraction:ExtractionEngine.extract",
        "repro.core.extraction:ExtractionEngine.extract_with_report",
        "repro.core.extraction:ExtractionEngine.extract_static_only",
    ),
    "core.ancillary": ("repro.core.pipeline:analyze_linked_sample",),
    "core.profit": (
        "repro.core.profit:ProfitAnalyzer.profile_wallet",
        "repro.core.profit:ProfitAnalyzer.profile_many",
    ),
    "core.aggregation": (
        "repro.core.aggregation:CampaignAggregator.aggregate",
        "repro.ingest.aggregator:IncrementalAggregator.add_record",
        "repro.ingest.aggregator:IncrementalAggregator.add_proxy_ips",
        "repro.ingest.aggregator:IncrementalAggregator.campaigns",
    ),
    "core.enrichment": (
        "repro.core.enrichment:CampaignEnricher.enrich_all",),
    "osint.stock_match": (
        "repro.osint.stock_tools:StockToolCatalog.match",),
    "fuzzyhash.ctph": ("repro.fuzzyhash.ctph:compute",),
    "scale.store.append": (
        "repro.scale.columnar:RecordStore.append_segment",),
    "scale.shards": (
        "repro.scale.shards:ShardedCampaignAggregator.aggregate_source",
        "repro.scale.shards:ShardedCampaignAggregator.aggregate",
    ),
    "ingest.checkpoint.commit": (
        "repro.ingest.checkpoint:CheckpointStore.commit_batch",),
    "ingest.checkpoint.snapshot": (
        "repro.ingest.checkpoint:CheckpointStore.write_snapshot",),
    "ingest.checkpoint.load": (
        "repro.ingest.checkpoint:CheckpointStore.load",),
    "serve.parse": ("repro.serve.http:read_request",),
    "serve.auth": (
        "repro.serve.auth:ApiKeyRegistry.authenticate",
        "repro.serve.auth:ApiKeyRegistry.throttle",
    ),
    "serve.index.lookup": (
        "repro.serve.index:IntelIndex.hash_intel",
        "repro.serve.index:IntelIndex.wallet_intel",
        "repro.serve.index:IntelIndex.campaign_intel",
        "repro.serve.index:IntelIndex.domain_intel",
        "repro.serve.index:IntelIndex.lookup",
    ),
    "serve.index.scan": ("repro.serve.index:IntelIndex.scan_text",),
    "serve.encode": (
        "repro.serve.http:json_response",
        "repro.serve.http:HttpResponse.render",
    ),
    "serve.index.build": ("repro.serve.index:build_index",),
    "analysis.exhibits": (
        "repro.analysis.exhibits:table4_currencies",
        "repro.analysis.exhibits:table7_pool_popularity",
        "repro.analysis.exhibits:table8_top_campaigns",
        "repro.analysis.exhibits:table11_infrastructure",
        "repro.analysis.exhibits:headline_monero_fraction",
        "repro.analysis.validation:aggregation_quality",
    ),
}

#: layers whose entry point returns an iterator: each ``next()`` is a
#: span, not the call that builds the iterator.
_ITERATOR_LAYERS = frozenset({"scale.chunk_gen"})

#: pool task functions whose workers flush their totals to disk.
_POOL_TASKS = (
    "repro.perf.parallel:_stage1_chunk",
    "repro.perf.parallel:_stage2_chunk",
    "repro.perf.parallel:_ctph_chunk",
    "repro.scale.shards:_pool_build_shard",
)

#: modules imported up front so every by-name binding gets rebound.
_PRELOAD = (
    "repro.analysis", "repro.core.pipeline", "repro.corpus.driver",
    "repro.corpus.case_studies", "repro.defense.intervention",
    "repro.ingest.service", "repro.perf.cache", "repro.pools.pool",
    "repro.scale.pipeline", "repro.serve.app", "repro.serve.index",
)

Span = Tuple[int, int, str, int, int]   # (id, parent, name, t0_ns, t1_ns)


class Tracer:
    """Spans kept in memory; one span stack per thread.

    ``clock`` returns nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns
                 ) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def reset(self) -> None:
        """Drop every span (a forked worker starts empty)."""
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def enter(self, name: str) -> Tuple[int, int, int]:
        """Open a span; returns the token :meth:`leave` needs."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1]
        stack.append(span_id)
        return span_id, parent, self.clock()

    def leave(self, name: str, token: Tuple[int, int, int]) -> None:
        """Close the span opened by :meth:`enter`."""
        end = self.clock()
        span_id, parent, start = token
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        self.spans.append((span_id, parent, name, start, end))

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper that records one span per call of ``fn``."""
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(name, token)

        return traced

    def wrap_iterator(self, name: str, fn: Callable) -> Callable:
        """A wrapper whose iterator records one span per ``next()``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedIterator(tracer, name, iter(fn(*args, **kwargs)))

        return traced

    def _wrap_async(self, name: str, fn: Callable) -> Callable:
        """Coroutine wrapper timing only the steps the coroutine runs.

        Time the coroutine spends suspended (waiting for the next
        request on a keep-alive socket) is not the layer's busy time,
        so each resumption is its own span.
        """
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            return await _TimedAwaitable(tracer, name, fn(*args, **kwargs))

        return traced


class _TracedIterator:
    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        token = self._tracer.enter(self._name)
        try:
            return next(self._inner)
        finally:
            self._tracer.leave(self._name, token)


class _TimedAwaitable:
    def __init__(self, tracer: Tracer, name: str, coro) -> None:
        self._tracer = tracer
        self._name = name
        self._coro = coro

    def __await__(self):
        coro = self._coro
        send, value, error = coro.send, None, None
        while True:
            token = self._tracer.enter(self._name)
            try:
                if error is not None:
                    yielded = coro.throw(error)
                else:
                    yielded = send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self._tracer.leave(self._name, token)
            value, error = None, None
            try:
                value = yield yielded
            except BaseException as exc:  # relayed into the coroutine
                error = exc


# -- installation -------------------------------------------------------


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


_Undo = List[Tuple[Any, str, Any]]     # (owner, attribute, old value)
_ABSENT = object()


def _set(undo: _Undo, owner: Any, attr: str, value: Any) -> None:
    undo.append((owner, attr, vars(owner).get(attr, _ABSENT)))
    setattr(owner, attr, value)


def _rebind(undo: _Undo, original: Callable, replacement: Callable) -> None:
    """Point every loaded repro module's binding of ``original`` at
    ``replacement``."""
    import sys
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                _set(undo, module, attr, replacement)


def _install_one(undo: _Undo, tracer: Tracer, layer: str,
                 target: str) -> None:
    owner, attr = _resolve(target)
    original = (getattr(owner, attr) if inspect.ismodule(owner)
                else inspect.getattr_static(owner, attr))
    if layer in _ITERATOR_LAYERS:
        wrapped = tracer.wrap_iterator(layer, original)
    else:
        wrapped = tracer.wrap(layer, original)
    if inspect.ismodule(owner):
        _rebind(undo, original, wrapped)
    else:
        _set(undo, owner, attr, wrapped)


def install_hooks(tracer: Tracer, spool_dir: Optional[str] = None,
                  layers: Optional[Dict[str, Tuple[str, ...]]] = None
                  ) -> Callable[[], None]:
    """Hook every entry point in ``layers`` (default :data:`LAYERS`);
    returns a function that removes the hooks again.

    With ``spool_dir`` the pool task functions also flush each forked
    worker's totals there (see :func:`read_spool`).
    """
    undo: _Undo = []
    for module_name in _PRELOAD:
        importlib.import_module(module_name)
    for layer, targets in (layers or LAYERS).items():
        for target in targets:
            _install_one(undo, tracer, layer, target)
    os.register_at_fork(after_in_child=tracer.reset)
    if spool_dir is not None:
        _install_spool(undo, tracer, spool_dir)

    def remove() -> None:
        for owner, attr, old in reversed(undo):
            if old is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        undo.clear()

    return remove


def _install_spool(undo: _Undo, tracer: Tracer, spool_dir: str) -> None:
    from repro.perf.scan import scan_stats
    at_fork: Dict[str, int] = {}

    def remember_counters() -> None:
        at_fork.clear()
        at_fork.update(scan_stats())

    os.register_at_fork(after_in_child=remember_counters)
    parent = os.getpid()
    for target in _POOL_TASKS:
        owner, attr = _resolve(target)
        original = getattr(owner, attr)
        _rebind(undo, original, _flushing_task(tracer, original, spool_dir,
                                               at_fork, parent))


def _flushing_task(tracer: Tracer, fn: Callable, spool_dir: str,
                   at_fork: Dict[str, int], parent: int) -> Callable:
    @functools.wraps(fn)
    def task(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            if os.getpid() != parent:
                _flush_worker(tracer, spool_dir, at_fork)

    return task


def _flush_worker(tracer: Tracer, spool_dir: str,
                  at_fork: Dict[str, int]) -> None:
    from repro.perf.scan import scan_stats
    counters = scan_stats()
    delta = {k: v - at_fork.get(k, 0) for k, v in counters.items()}
    at_fork.clear()
    at_fork.update(counters)
    line = {"layers": layer_totals(tracer.spans), "scan": delta}
    tracer.spans = []
    path = os.path.join(spool_dir, f"worker-{os.getpid()}.jsonl")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line) + "\n")


def read_spool(spool_dir: str) -> Tuple[Dict[str, Dict[str, float]],
                                        Dict[str, int]]:
    """Sum every worker's flushed totals: (layer totals, scan counters)."""
    layers: Dict[str, Dict[str, float]] = {}
    scan: Dict[str, int] = defaultdict(int)
    if not os.path.isdir(spool_dir):
        return layers, dict(scan)
    for name in sorted(os.listdir(spool_dir)):
        if not name.startswith("worker-"):
            continue
        with open(os.path.join(spool_dir, name), encoding="utf-8") as fh:
            for raw in fh:
                line = json.loads(raw)
                merge_totals(layers, line["layers"])
                for key, value in line["scan"].items():
                    scan[key] += value
    return layers, dict(scan)


# -- reduction ----------------------------------------------------------


def layer_totals(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: ``calls``, ``busy_s`` (self time) and ``wall_s``."""
    spans = list(spans)
    covered: Dict[int, int] = defaultdict(int)
    for _sid, parent, _name, start, end in spans:
        if parent:
            covered[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for sid, _parent, name, start, end in spans:
        entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                      "wall_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += (end - start - covered.get(sid, 0)) / 1e9
        entry["wall_s"] += (end - start) / 1e9
    return out


def merge_totals(into: Dict[str, Dict[str, float]],
                 more: Dict[str, Dict[str, float]]) -> None:
    """Add ``more``'s per-layer totals into ``into``."""
    for name, entry in more.items():
        target = into.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                        "wall_s": 0.0})
        for key, value in entry.items():
            target[key] = target.get(key, 0) + value


def missing_layers(totals: Dict[str, Dict[str, float]],
                   expected: Iterable[str]) -> List[str]:
    """Expected layers whose hooks recorded zero calls."""
    return sorted(name for name in expected
                  if totals.get(name, {}).get("calls", 0) == 0)
