"""Span tracing around the public callables of each program layer.

The program itself is not instrumented.  A :class:`Tracer` replaces each
target callable named in ``meta.json`` with a timing wrapper, in every
module or class where callers look the name up, and puts the originals
back afterwards.  A span is (name, start, end, parent); instead of
keeping every span, the tracer folds each one into its layer's self time
(span time minus the time of its child spans) as it closes, in integer
nanoseconds, so the self times of all spans add up to the root span's
duration exactly.
"""

from __future__ import annotations

import collections
import importlib
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

ROOT_SPAN = "op"


def _resolve(target: str) -> Tuple[object, str, Callable]:
    """``module:Class.attr`` or ``module:function`` -> (owner, attr, original)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _bindings(target: str) -> List[Tuple[object, str, Callable, bool]]:
    """Every (owner, attr, original, owned) where callers find ``target``.

    A method is looked up through its class, so patching the class named
    in the target reaches every caller (``owned`` is False when the class
    only inherits the attribute, and the patch must be deleted, not
    restored).  A module-level function is imported by name into other
    modules, so every loaded ``repro`` module holding it is patched.
    """
    owner, attr, original = _resolve(target)
    if isinstance(owner, type):
        return [(owner, attr, original, attr in vars(owner))]
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                found.append((module, key, original, True))
    return found


class Tracer:
    """Layer spans for one traced operation at a time."""

    def __init__(self, layers: List[dict]) -> None:
        self._patches: List[Tuple[object, str, Callable, bool, Callable]] = []
        self._stack: List[List[int]] = []
        self.self_ns: Dict[str, int] = collections.Counter()
        self.counts: Dict[str, int] = collections.Counter()
        self.nodes: Dict[int, object] = {}
        self.orphans = 0
        self.root_ns = 0
        self._count_names = set(OBSERVED_COUNTS)
        for layer in layers:
            for entry in layer["targets"]:
                target = entry["target"]
                if entry.get("count"):
                    self._count_names.add(entry["count"])
                observe = OBSERVERS.get(target)
                for owner, attr, original, owned in _bindings(target):
                    wrapper = self._wrap(
                        layer["span"], original, entry.get("count"), observe
                    )
                    self._patches.append((owner, attr, original, owned, wrapper))

    def reset(self) -> None:
        """Forget the previous operation; every count starts at zero."""
        self.self_ns.clear()
        self.counts.clear()
        self.counts.update(dict.fromkeys(self._count_names, 0))
        self.nodes.clear()
        self.orphans = 0
        self.root_ns = 0

    def _wrap(self, span: str, fn: Callable, count: Optional[str],
              observe: Optional[Callable]) -> Callable:
        stack = self._stack
        self_ns = self.self_ns
        counts = self.counts
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            frame = [0]
            stack.append(frame)
            start = clock()
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[span] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.orphans += 1
                if observe is not None:
                    observe(tracer, args, None if error else result, error)
            return result

        traced.__name__ = getattr(fn, "__name__", span)
        traced.__qualname__ = getattr(fn, "__qualname__", span)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def run(self, operation: Callable[[], object]) -> object:
        """Run ``operation`` as the root span with every layer patched in."""
        if self._stack:
            raise RuntimeError("a traced operation is already running")
        for owner, attr, _original, _owned, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            frame = [0]
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return operation()
            finally:
                elapsed = time.perf_counter_ns() - start
                self._stack.pop()
                self.root_ns = elapsed
                self.self_ns[ROOT_SPAN] += elapsed - frame[0]
        finally:
            for owner, attr, original, owned, _wrapper in self._patches:
                if owned:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def accounting_error_ns(self) -> int:
        """Root duration minus the sum of every span's self time (0 if whole)."""
        return self.root_ns - sum(self.self_ns.values())


# -- counters observed at the span boundaries ---------------------------------


def _observe_node(tracer: Tracer, args, _result, _error) -> None:
    node = args[0]
    tracer.nodes[id(node)] = node


def _observe_cohort(tracer: Tracer, args, _result, error) -> None:
    tracer.counts["cohort.lanes"] += args[0].node_count
    if error is not None and type(error).__name__ == "CohortFallback":
        tracer.counts["cohort.fallbacks"] += 1


def _observe_channel(tracer: Tracer, args, _result, _error) -> None:
    tracer.counts["channel.records"] += len(args[0])


def _observe_pool(tracer: Tracer, args, _result, _error) -> None:
    tracer.counts["pool.tasks"] += args[0].trials


def _observe_store_get(tracer: Tracer, _args, result, _error) -> None:
    hit = result is not None and result[0]
    tracer.counts["store.hits" if hit else "store.misses"] += 1


def _observe_checkpoint_write(tracer: Tracer, args, _result, error) -> None:
    path = args[1] if len(args) > 1 else None
    if error is None and path is not None and os.path.exists(path):
        tracer.counts["checkpoint.bytes"] += os.path.getsize(path)


OBSERVED_COUNTS = (
    "cohort.lanes", "cohort.fallbacks", "channel.records", "pool.tasks",
    "store.hits", "store.misses", "checkpoint.bytes",
)

OBSERVERS: Dict[str, Callable] = {
    "repro.core.node:PicoCube._update": _observe_node,
    "repro.net.cohort:advance_cohort": _observe_cohort,
    "repro.net.fleet:resolve_channel": _observe_channel,
    "repro.runner.pool:MonteCarlo.run": _observe_pool,
    "repro.runner.store:ResultStore.get": _observe_store_get,
    "repro.sim.checkpoint:write_checkpoint": _observe_checkpoint_write,
}


# -- per-operation layer metrics ----------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def operation_metrics(
    tracer: Tracer,
) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, float]]:
    """(times, counts, ratios) for the operation just traced.

    Times are self-time shares of the root span in percent, plus a few
    per-call costs in microseconds; counts, and the ratios derived only
    from counts, are exact and must repeat on every traced run of the
    same inputs.
    """
    self_ns = tracer.self_ns
    counts = collections.Counter(tracer.counts)
    root = tracer.root_ns

    def pct(span: str) -> float:
        return 100.0 * self_ns.get(span, 0) / root

    def us_per(span: str, calls: str) -> float:
        return _ratio(self_ns.get(span, 0) / 1e3, counts[calls])

    ff_leaps = ff_replayed = ff_stepped = 0
    for node in tracer.nodes.values():
        ff = node.fast_forward
        if ff is not None:
            ff_leaps += len(ff.leaps)
            ff_replayed += ff.cycles_replayed
            ff_stepped += node.cycles_completed - ff.cycles_replayed
    counts["ff.leaps"] = ff_leaps
    counts["ff.stepped_cycles"] = ff_stepped
    counts["node.instances"] = len(tracer.nodes)

    times = {
        "op.self_pct": pct(ROOT_SPAN),
        "engine.self_pct": pct("engine"),
        "engine.us_per_event": us_per("engine", "engine.events"),
        "node.update.self_pct": pct("node.update"),
        "node.update.us_per_call": us_per("node.update", "node.update.calls"),
        "solve.scalar.self_pct": pct("solve.scalar"),
        "solve.scalar.us_per_call": us_per("solve.scalar", "solve.scalar.calls"),
        "nimh.self_pct": pct("nimh"),
        "recorder.self_pct": pct("recorder"),
        "trace.integral.self_pct": pct("trace.integral"),
        "audit.self_pct": pct("audit"),
        "ff.self_pct": pct("ff"),
        "cohort.self_pct": pct("cohort"),
        "kernel.self_pct": pct("kernel"),
        "channel.self_pct": pct("channel"),
        "pool.self_pct": pct("pool"),
        "task.self_pct": pct("task"),
        "store.get_pct": pct("store.get"),
        "store.put_pct": pct("store.put"),
        "checkpoint.save_pct": pct("checkpoint.save"),
        "checkpoint.write_pct": pct("checkpoint.write"),
    }
    ratios = {
        "solve.scalar.per_update": _ratio(
            counts["solve.scalar.calls"], counts["node.update.calls"]
        ),
        "ff.replayed_frac": _ratio(ff_replayed, ff_replayed + ff_stepped),
        "store.hit_rate": _ratio(
            counts["store.hits"], counts["store.hits"] + counts["store.misses"]
        ),
    }
    return times, dict(counts), ratios
