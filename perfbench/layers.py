"""Per-layer spans for the traced benchmark run.

The traced run wraps the public entry points of each engine layer (see
:data:`BOUNDARIES`) for the duration of one pass and restores the original
objects afterwards; nothing under ``src/`` is edited.  Each wrapped call is
a span.  Spans live on a per-thread stack, so the two client threads of the
server workload never see each other's spans, and a span's *self time* is its
duration minus the durations of the spans directly nested in it.

The benchmark opens one root span, named ``other``, around every statement
it submits.  Every span on a thread therefore nests under a root, and the
self times of all spans on that thread add up exactly to the summed root
durations: ``other.self_s`` is whatever no wrapped layer claimed.

Two re-attributions follow the paper's switch machinery: an
``Optimizer.optimize`` call made while ``core.decide`` (the
collector-completion hook) is on the stack re-plans the remainder, so it
counts as ``core.replan``; SQL front-end spans there are the remainder's
deparse/re-parse/re-bind round trip, so they count as ``core.remainder``.
Re-annotation with improved estimates stays ``optimizer.annotate``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator, Sequence

ROOT = "other"
DECIDE = "core.decide"
#: Boundary -> the name its span takes under ``core.decide``.
UNDER_DECIDE = {
    "optimizer.optimize": "core.replan",
    "sql.parse": "core.remainder",
    "sql.bind": "core.remainder",
    "sql.deparse": "core.remainder",
}


def _scia_measures(args, result) -> dict:
    return {"kept": len(result.kept), "dropped": len(result.dropped)}


def _collect_measures(args, result) -> dict:
    return {"rows": len(args[1])}


def _temp_measures(args, result) -> dict:
    return {"rows": result}


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point: span name, ``module``, ``Class.attr`` or
    ``function`` inside it, and an optional counter extractor called with
    the call's positional arguments and its result."""

    name: str
    module: str
    qualname: str
    measure: Callable[[tuple, Any], dict] | None = None


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("sql.parse", "repro.sql.parser", "parse"),
    Boundary("sql.bind", "repro.sql.binder", "bind"),
    Boundary("sql.deparse", "repro.sql.deparser", "deparse"),
    Boundary("optimizer.optimize", "repro.optimizer.optimizer", "Optimizer.optimize"),
    Boundary("optimizer.annotate", "repro.optimizer.annotate", "PlanAnnotator.annotate"),
    Boundary("core.scia", "repro.core.scia", "insert_collectors", _scia_measures),
    Boundary(DECIDE, "repro.core.reoptimizer", "DynamicReoptimizer.on_collector_complete"),
    Boundary("core.remainder", "repro.core.remainder", "build_remainder"),
    Boundary("core.remainder", "repro.core.remainder", "temp_table_stats"),
    Boundary("executor.dispatch", "repro.executor.dispatcher", "Dispatcher.run"),
    Boundary(
        "executor.collect", "repro.executor.collector",
        "RuntimeCollector.observe_batch", _collect_measures,
    ),
    Boundary("executor.collect", "repro.executor.collector", "RuntimeCollector.finalize"),
    Boundary("executor.memory", "repro.executor.memory", "MemoryManager.allocate"),
    Boundary("stats.reservoir", "repro.stats.sampling", "Reservoir.add_batch"),
    Boundary("stats.distinct", "repro.stats.distinct", "HybridDistinct.add_batch"),
    # Base tables are loaded during set-up, which is never traced, so every
    # append inside a traced pass writes a temp table: a switch's
    # materialization or a session temp table.
    Boundary("storage.temp", "repro.storage.table", "Table.append_rows", _temp_measures),
    Boundary("engine.admission", "repro.engine.server", "AdmissionController.admit"),
    Boundary("engine.admission", "repro.engine.server", "GlobalMemoryBroker.acquire"),
)


class _Frame:
    __slots__ = ("boundary", "name", "start", "child", "in_decide")

    def __init__(self, boundary: str, name: str, start: float, in_decide: bool) -> None:
        self.boundary = boundary
        self.name = name
        self.start = start
        self.child = 0.0
        self.in_decide = in_decide


class _ThreadState:
    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: list[_Frame] = []
        #: (name, start, duration) in completion order.
        self.spans: list[tuple[str, float, float]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.measures: Counter = Counter()


class SpanRecorder:
    """Collects spans on per-thread stacks and folds them into self times."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    def begin(self, boundary: str) -> _Frame | None:
        """Open a span; ``None`` when it would nest directly in a span of the
        same boundary (recursion collapses into the outer span)."""
        state = self._state()
        parent = state.stack[-1] if state.stack else None
        if parent is not None and parent.boundary == boundary:
            return None
        in_decide = parent is not None and (parent.in_decide or parent.name == DECIDE)
        name = boundary
        if in_decide:
            name = UNDER_DECIDE.get(boundary, boundary)
        frame = _Frame(boundary, name, self._clock(), in_decide)
        state.stack.append(frame)
        return frame

    def end(self, frame: _Frame | None, measures: dict | None = None) -> None:
        """Close the innermost span (``frame`` from the matching :meth:`begin`)."""
        if frame is None:
            return
        end = self._clock()
        state = self._state()
        popped = state.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        duration = end - frame.start
        state.self_s[frame.name] += duration - frame.child
        state.calls[frame.name] += 1
        if measures:
            for key, amount in measures.items():
                state.measures[f"{frame.name}.{key}"] += amount
        if state.stack:
            state.stack[-1].child += duration
        state.spans.append((frame.name, frame.start, duration))

    @contextlib.contextmanager
    def root(self) -> Iterator[None]:
        """One statement's root span."""
        frame = self.begin(ROOT)
        try:
            yield
        finally:
            self.end(frame)

    # -- results ------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, summed over threads."""
        total: defaultdict[str, float] = defaultdict(float)
        for state in self._states:
            for name, seconds in state.self_s.items():
                total[name] += seconds
        return dict(total)

    def calls(self) -> Counter:
        """Span count per name, summed over threads."""
        total: Counter = Counter()
        for state in self._states:
            total.update(state.calls)
        return total

    def measures(self) -> Counter:
        """Boundary counters (``<span>.<measure>``), summed over threads."""
        total: Counter = Counter()
        for state in self._states:
            total.update(state.measures)
        return total

    def root_seconds(self) -> float:
        """Summed duration of the root spans: client-thread busy seconds."""
        return sum(
            duration
            for state in self._states
            for name, __, duration in state.spans
            if name == ROOT
        )

    def open_spans(self) -> int:
        """Spans begun but not ended, over all threads."""
        return sum(len(state.stack) for state in self._states)

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace ``X`` events, ordered by start time."""
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": state.tid,
            }
            for state in self._states
            for name, start, duration in state.spans
        ]
        events.sort(key=lambda event: (event["ts"], -event["dur"]))
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _resolve(boundary: Boundary):
    module = importlib.import_module(boundary.module)
    owner: Any = module
    *path, attr = boundary.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{boundary.module}.{boundary.qualname} is not defined there")
    return owner, attr, vars(owner)[attr]


def _wrapper(recorder: SpanRecorder, boundary: Boundary, fn: Callable) -> Callable:
    name = boundary.name
    measure = boundary.measure

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        frame = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.end(frame)
            raise
        recorder.end(frame, measure(args, result) if measure and frame else None)
        return result

    return wrapped


class LayerWrappers:
    """Installs a wrapper around every boundary for a ``with`` block.

    A class attribute is replaced on its class.  A module-level function is
    replaced under every name that binds it in any loaded ``repro`` module,
    because callers import functions by name (``from ..sql.parser import
    parse``).  Leaving the block puts every original object back.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._patched: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "LayerWrappers":
        try:
            for boundary in BOUNDARIES:
                owner, attr, original = _resolve(boundary)
                wrapped = _wrapper(self.recorder, boundary, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapped)
                    continue
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "")
                    if name != "repro" and not name.startswith("repro."):
                        continue
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, binding, original, wrapped)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner: Any, attr: str, original: Any, wrapped: Callable) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original object back (idempotent)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# -- summary statistics -------------------------------------------------------


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` percent
    of the sample at or below it (no interpolation)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered) - 1e-9)
    return ordered[max(rank, 1) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q``
    percentile's rank."""
    return n - max(math.ceil(q / 100.0 * n - 1e-9), 1)


def min_samples_for(q: float, beyond: int = 10) -> int:
    """Smallest sample size with at least ``beyond`` samples past the
    ``q`` percentile (100 for p90 with ten beyond)."""
    n = 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


def _ranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (average ranks for ties); 0.0 when either
    side is constant."""
    if len(xs) != len(ys):
        raise ValueError("spearman needs paired samples")
    rx, ry = _ranks(xs), _ranks(ys)
    n = len(xs)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / math.sqrt(vx * vy)
