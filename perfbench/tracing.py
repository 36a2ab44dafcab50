"""Span tracing of tomoseg without editing it.

``Tracer.install`` replaces every public function of every tomoseg module
(and the public methods of the classes those modules define) with a wrapper
that records a span: name, start, end and the index of the enclosing span.
The wrapper is rebound under every name that held the original, in every
tomoseg module, so ``from .binarize import distance_transform`` inside
watershed.py is traced as well. ``uninstall`` puts the originals back.

Probes turn a call's arguments (by parameter name) and result into exact
counts; they run after the span closes, so their cost is not charged to the
layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter

# backend.selected() runs on every kernel dispatch and is not a layer
SKIP_MODULES = ("tomoseg.backend",)


class NullTracer:
    """Stand-in used when tracing is off: spans cost one context manager."""

    def __init__(self):
        self.counts = Counter()

    def span(self, name):
        return contextlib.nullcontext()

    def mark(self) -> int:
        return -1


class Tracer:
    def __init__(self, probes=None):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._probes = probes or {}
        self._undo = []

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, func):
        probe = self._probes.get(name)
        signature = inspect.signature(func) if probe is not None else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(idx)
            if probe is not None:
                probe(self.counts, result, signature.bind(*args, **kwargs).arguments)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the package's public functions and methods."""
        modules = [package] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(package.__path__, package.__name__ + ".")
        ]
        modules = [m for m in modules if m.__name__ not in SKIP_MODULES]
        prefix = package.__name__ + "."
        wrappers = {}  # id(original) -> wrapper
        for mod in modules:
            layer = mod.__name__.removeprefix(prefix)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth_name, meth in list(vars(obj).items()):
                        if not meth_name.startswith("_") and inspect.isfunction(meth):
                            self._undo.append((obj, meth_name, meth))
                            setattr(obj, meth_name, self.wrap(f"{layer}.{attr}.{meth_name}", meth))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def mark(self) -> int:
        """Index of the next span; spans from a mark on belong to what follows."""
        return len(self.spans)


def subtree(spans, root: int) -> range:
    """Indices of the spans opened inside span ``root``: spans are stored in
    start order, so they are the ones after it that start before it ends."""
    end = spans[root][2]
    stop = root + 1
    while stop < len(spans) and spans[stop][1] < end:
        stop += 1
    return range(root + 1, stop)


def summarize(spans, root: int):
    """Per-name total time, self time and call count of the spans inside
    ``root``, an index into ``spans``.

    A span nested inside another of the same name counts once, at the
    outermost level. Returns (totals, selfs, calls, covered) where
    ``covered`` is the time spent in program spans called directly from the
    benchmark's own ``bench.*`` spans (``root`` among them).
    """
    child_time = Counter()
    totals, selfs, calls = Counter(), Counter(), Counter()
    names_above = {root: frozenset()}
    covered = 0.0
    inside = subtree(spans, root)
    for idx in inside:
        name, t0, t1, parent = spans[idx]
        dur = t1 - t0
        child_time[parent] += dur
        if not name.startswith("bench.") and spans[parent][0].startswith("bench."):
            covered += dur
        above = names_above[parent]
        names_above[idx] = above | {name}
        calls[name] += 1
        if name not in above:
            totals[name] += dur
    for idx in inside:
        name, t0, t1, _ = spans[idx]
        selfs[name] += (t1 - t0) - child_time[idx]
    return totals, selfs, calls, covered


def per_span_cost(repeats: int = 20000) -> float:
    """Seconds one traced call adds, measured on a no-op function."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(repeats):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(repeats):
        traced()
    return max(0.0, (time.perf_counter() - t0 - bare) / repeats)
