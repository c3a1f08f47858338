"""Outside-in layer tracing of the expmodel package.

The program is not modified: :func:`installed` replaces, for the duration of
a ``with`` block, the module and class attributes through which the package
calls its own layers, and puts them back afterwards. Each wrapper records a
span (name, start, end, parent, thread) in memory and adds work counts
derived from the call's arguments. Attributes that no longer exist are
skipped and listed in ``Tracer.missing``, so a layer that a later change
removes reads as zero work rather than breaking the benchmark.

Memory is measured in a separate pass (:func:`memory_installed`), because
``tracemalloc`` slows allocation and would distort the timings.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import os
import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

MB = 1e6

# Writers of CSV and report files, with the name of their path argument.
WRITERS = [
    ("cli", "write_dataset_csv", "path"),
    ("cli", "write_predictions_csv", "path"),
    ("cli", "write_quality_csv", "path"),
    ("cli", "_write_curves_csv", "path"),
    ("cli", "_write_report", "path"),
    ("InfoCurve", "write_records_csv", "path"),
    ("InfoCurve", "write_summary_csv", "path"),
]


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


class Tracer:
    """Spans and counters kept in memory; thread-safe."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record one span; ``parent`` is used when this thread has no open span."""
        stack = self._stack()
        sid = next(self._ids)
        if stack:
            parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, threading.get_ident()))

    def add(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[key] += amount

    def take(self) -> tuple[list[Span], Counter]:
        """Return and clear the spans and counts recorded so far."""
        with self._lock:
            spans, counts = self.spans, self.counts
            self.spans, self.counts = [], Counter()
        return spans, counts


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the union of its children's coverage.

    Children may run on other threads and overlap each other; the union
    counts overlapping time once.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None:
            children[p.id].append((max(s.start, p.start), min(s.end, p.end)))
    return {s.id: (s.end - s.start) - _union_length(children[s.id]) for s in spans}


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: summed duration ``s``, summed ``self_s`` and ``calls``.

    Durations of spans that run on several threads at once are summed, so
    ``s`` of such a layer is busy time and can exceed the wall time.
    """
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for s in spans:
        rec = out[s.name]
        rec["s"] += s.end - s.start
        rec["self_s"] += own[s.id]
        rec["calls"] += 1
    return dict(out)


def max_workers(spans: list[Span]) -> int:
    """Most distinct threads that ran chunks of one run_chunks call."""
    threads: dict[int, set[int]] = defaultdict(set)
    for s in spans:
        if s.name == "threads.chunk" and s.parent is not None:
            threads[s.parent].add(s.thread)
    return max((len(t) for t in threads.values()), default=0)


def _targets() -> dict[str, object]:
    from expmodel import cli, density, information, predictor

    return {
        "cli": cli,
        "density": density,
        "information": information,
        "predictor": predictor,
        "DensityModel": density.DensityModel,
        "CaPredictor": predictor.CaPredictor,
        "InfoCurve": information.InfoCurve,
    }


@contextmanager
def _patched(targets: dict, specs, missing: list[str]):
    """Replace each (target, attribute) by make(original) inside the block."""
    saved = []
    try:
        for target_name, attr, make in specs:
            target = targets[target_name]
            original = getattr(target, attr, None)
            if original is None:
                missing.append(f"{target_name}.{attr}")
                continue
            saved.append((target, attr, original))
            setattr(target, attr, functools.wraps(original)(make(original)))
        yield
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)


@contextmanager
def installed(tracer: Tracer):
    """Wrap the package's layer boundaries with span-recording functions."""

    def timed(name, count=None):
        def make(original):
            sig = inspect.signature(original)

            def wrapper(*args, **kwargs):
                if count is not None:
                    count(sig.bind(*args, **kwargs).arguments)
                with tracer.span(name):
                    return original(*args, **kwargs)
            return wrapper
        return make

    def count_info(a):
        tracer.add("information.prefixes", 1)
        tracer.add("information.prefix_samples", len(a["model"].data))
        tracer.add("information.grid_nodes", a["grid"].points_per_axis ** 2)

    def count_joint(a):
        n = len(a["self"].data)
        tracer.add("density.matmul_flops", 2 * n * np.size(a["xs"]) * np.size(a["ys"]))

    def count_kernel(a):
        shape = np.broadcast_shapes(np.shape(a["x"]), np.shape(a["u"]))
        tracer.add("scattering.kernel_elems", math.prod(shape))

    def count_pairs(a):
        tracer.add("predictor.pairs", len(a["self"].data) * np.size(a["xs"]))

    def run_chunks(original):
        sig = inspect.signature(original)

        def wrapper(*args, **kwargs):
            a = sig.bind(*args, **kwargs).arguments
            fn = a.pop("fn")
            with tracer.span("threads.run_chunks") as sid:
                def chunk(lo, hi):
                    tracer.add("threads.chunks", 1)
                    with tracer.span("threads.chunk", parent=sid):
                        return fn(lo, hi)
                return original(chunk, **a)
        return wrapper

    def writer(path_arg):
        def make(original):
            sig = inspect.signature(original)

            def wrapper(*args, **kwargs):
                path = sig.bind(*args, **kwargs).arguments[path_arg]
                with tracer.span("cli.csv_write"):
                    result = original(*args, **kwargs)
                tracer.add("cli.bytes_written", os.path.getsize(path))
                return result
            return wrapper
        return make

    specs = [
        ("cli", "generate", timed("generator.generate")),
        ("cli", "read_dataset_csv", timed("density.read_dataset_csv")),
        ("cli", "info_curve", timed("information.info_curve")),
        ("cli", "quality_sweep", timed("predictor.quality_sweep")),
        ("information", "experimental_information",
         timed("information.experimental_information", count_info)),
        ("DensityModel", "joint_on_grid", timed("density.joint_on_grid", count_joint)),
        ("density", "log_gaussian", timed("scattering.log_gaussian", count_kernel)),
        ("density", "run_chunks", run_chunks),
        ("CaPredictor", "predict_many", timed("predictor.predict_many", count_pairs)),
        ("predictor", "predictor_quality", timed("predictor.predictor_quality")),
    ] + [(t, attr, writer(p)) for t, attr, p in WRITERS]
    with _patched(_targets(), specs, tracer.missing):
        yield tracer


class MemoryProbe:
    """Per-layer tracemalloc peaks above the memory held at call entry.

    tracemalloc keeps one process-wide peak, so every boundary folds the
    current peak into all open frames before resetting it.
    """

    def __init__(self) -> None:
        self.peaks: dict[str, float] = defaultdict(float)
        self._frames: list[list[int]] = []  # [base, highest] of each open call

    def _fold(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._frames:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        return current

    @contextmanager
    def frame(self, name: str):
        base = self._fold()
        self._frames.append([base, base])
        try:
            yield
        finally:
            self._fold()
            base, highest = self._frames.pop()
            self.peaks[name] = max(self.peaks[name], (highest - base) / MB)


@contextmanager
def memory_installed(probe: MemoryProbe, names: dict[str, tuple[str, str]]):
    """Wrap the main-thread layers in ``names`` (metric -> target, attribute)."""

    def make_for(name):
        def make(original):
            def wrapper(*args, **kwargs):
                with probe.frame(name):
                    return original(*args, **kwargs)
            return wrapper
        return make

    missing: list[str] = []
    specs = [(t, attr, make_for(name)) for name, (t, attr) in names.items()]
    with _patched(_targets(), specs, missing):
        yield probe
