"""Span tracing for the benchmark's traced runs, from outside the program.

`Tracer.install()` replaces chosen qhopper functions, in every qhopper
module that binds them, by wrappers that record a span per call.  The
program's code is untouched; consumers simply look the wrapper up where
they used to find the function.  Spans are kept in memory and handed
back with the query result.

Pool threads (analysis fans work out to a thread pool) have an empty
span stack of their own; their root spans are parented to the innermost
open span of the main thread, so the union rule in `self_times` still
charges the parent only for time no child covers.
"""
from __future__ import annotations

import functools
import importlib
import math
import threading
import time
import weakref
from dataclasses import dataclass, field

# span name per (module, function); the module is where the function is
# defined, the wrapper is installed wherever the function object is bound
TARGETS = {
    ("histories", "enumerate_histories"): "histories.enumerate",
    ("histories", "amplitude_classes"): "histories.classes",
    ("measure", "sector_tables"): "measure.tables",
    ("measure", "_enumerate_zero_vectors"): "measure.box_walk",
    ("measure", "_vector_maxima"): "measure.maxima",
    ("measure", "count_precluded"): "measure.count",
    ("measure", "count_precluded_bruteforce"): "measure.count_bruteforce",
    ("measure", "maximal_zero_count_vectors"): "measure.maximal",
    ("coevents", "minimal_preclusive_vectors"): "coevents.minimal",
    ("coevents", "count_primitive"): "coevents.count_primitive",
    ("coevents", "enumerate_primitive"): "coevents.enumerate",
    ("coevents", "enumerate_primitive_bruteforce"): "coevents.bruteforce",
    ("subsetwalk", "walk_count_table"): "subsetwalk.walk",
    ("subsetwalk", "zero_sum_subsets"): "subsetwalk.zero_sum",
    ("analysis", "ensemble_symmetry_report"): "analysis.symmetry",
    ("analysis", "discrimination_report"): "analysis.discrimination",
    ("analysis", "average_net_circulation"): "analysis.statistics",
    ("analysis", "classify_restlessness"): "analysis.statistics",
    ("analysis", "event_verdicts"): "analysis.statistics",
    ("analysis", "coevent_records"): "analysis.statistics",
    ("analysis", "never_moves_event"): "analysis.statistics",
    ("analysis", "never_rests_event"): "analysis.statistics",
    ("analysis", "rests_exactly_once_event"): "analysis.statistics",
    ("analysis", "avoids_site_event"): "analysis.statistics",
    ("analysis", "avoids_any_site_event"): "analysis.statistics",
    ("analysis", "circulates_positive_only_event"): "analysis.statistics",
    ("model", "check_unitarity"): "model.unitarity",
}
MODULES = ("cli", "analysis", "coevents", "measure", "histories", "model", "subsetwalk")

# Bytes the Gray-code walks write per visited subset, from the dtypes of
# their per-step arrays: step index, flipped bit, sign (int64 each), then
# for walk_count_table the weight delta and running table index (int64)
# plus one bool table read, and for zero_sum_subsets a delta row and a
# running-sum row of `width` int64 each.  Computed, not measured.
WALK_BYTES_PER_SUBSET = 5 * 8 + 1


def zero_sum_bytes_per_subset(width: int) -> int:
    return 3 * 8 + 2 * 8 * width


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0


@dataclass
class Counters:
    values: dict[str, float] = field(default_factory=dict)
    spaces: set = field(default_factory=set)

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        self.values[key] = max(self.values.get(key, value), value)


class Tracer:
    """Records spans and layer counters for one query in one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters = Counters()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._seen_classes: weakref.WeakSet = weakref.WeakSet()
        self._installed: list[tuple[object, str, object]] = []

    # -- span stack -------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, time.perf_counter(), parent=parent, thread=threading.get_ident())
        with self._lock:
            self.spans.append(span)
            sid = len(self.spans) - 1
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack().pop()

    # -- patching ---------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target function wherever a qhopper module binds it."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        wrappers = {}
        for (mod, attr), name in TARGETS.items():
            fn = getattr(modules[mod], attr, None)
            if fn is not None:
                wrappers[id(fn)] = self._wrap(fn, name)
        for mod in [package, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._installed):
            setattr(mod, attr, value)
        self._installed.clear()

    def _wrap(self, fn, name: str):
        hook = getattr(self, "_count_" + fn.__name__.lstrip("_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                self.close(sid)
                if hook is not None:
                    try:
                        hook(args, kwargs, result, exc)
                    except Exception:  # a counter must never change the query
                        self.counters.add("trace.hook_errors", 1)

        return wrapper

    # -- counters, one hook per wrapped function that does countable work --

    def _count_enumerate_histories(self, args, kwargs, result, exc):
        if exc is None:
            spec, state = args[0], args[1]
            final = args[2] if len(args) > 2 else kwargs.get("final")
            amps = tuple(a.coeffs for a in state.amps)
            self.counters.spaces.add((spec.n, spec.steps, state.label, amps, final))
            self.counters.add("histories.histories", result.size)

    def _count_amplitude_classes(self, args, kwargs, result, exc):
        if exc is None and result not in self._seen_classes:
            self._seen_classes.add(result)
            self.counters.add("histories.classes", len(result.classes))

    def _count_enumerate_zero_vectors(self, args, kwargs, result, exc):
        counts, max_vectors = args[1], args[3]
        box = math.prod(c + 1 for c in counts)
        self.counters.maximum("measure.guard_ratio", box / max_vectors)
        if exc is None:
            self.counters.add("measure.box_points", box)
            self.counters.add("measure.zero_vectors", len(result))

    def _count_vector_maxima(self, args, kwargs, result, exc):
        if exc is None:
            self.counters.add("measure.maximal_vectors", len(result))

    def _count_minimal_preclusive_vectors(self, args, kwargs, result, exc):
        if exc is None:
            self.counters.add("coevents.minimal_vectors", len(result))

    def _count_enumerate_primitive(self, args, kwargs, result, exc):
        if exc is None:
            self.counters.add("coevents.supports", len(result))

    def _count_walk_count_table(self, args, kwargs, result, exc):
        subsets = 1 << args[0]
        self.counters.add("subsetwalk.subsets", subsets)
        self.counters.add("subsetwalk.bytes_computed", subsets * WALK_BYTES_PER_SUBSET)
        self.counters.maximum("subsetwalk.threads", kwargs.get("threads", 1))

    def _count_zero_sum_subsets(self, args, kwargs, result, exc):
        rows = args[0]
        subsets = 1 << len(rows)
        width = len(rows[0]) if rows else 0
        self.counters.add("subsetwalk.subsets", subsets)
        self.counters.add(
            "subsetwalk.bytes_computed", subsets * zero_sum_bytes_per_subset(width)
        )
        self.counters.maximum("subsetwalk.threads", kwargs.get("threads", 1))

    def _count_scanned(self, args, kwargs, result, exc):
        if args and hasattr(args[0], "__len__"):
            self.counters.add("analysis.coevents_scanned", len(args[0]))

    _count_average_net_circulation = _count_scanned
    _count_classify_restlessness = _count_scanned
    _count_event_verdicts = _count_scanned
    _count_coevent_records = _count_scanned

    def export(self) -> dict:
        counters = dict(self.counters.values)
        counters["histories.distinct_spaces"] = len(self.counters.spaces)
        return {
            "spans": [
                [s.name, s.start, s.end, s.parent, s.thread] for s in self.spans
            ],
            "counters": counters,
        }


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = s[3]
        if parent is not None:
            children.setdefault(parent, []).append((s[1], s[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out
