"""Spans around the benchmark's calls into nashforge's public functions.

The workloads reach the package only through an `Api` object.  Untraced,
its attributes are the modules themselves, so the timed pass pays nothing.
Traced, each attribute is a proxy whose public functions record one span
per call: name `<module>.<function>`, start, end, parent span and item id.
Calls the package makes internally are not seen, which keeps every span
at a boundary the benchmark chose.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from types import ModuleType

MODULES = ("brouwer", "compiler", "fixp", "lp", "lcp", "nash")


class Tracer:
    """In-memory span log; spans are rows [name, start, end, parent, item]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = None

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        row = [name, time.perf_counter(), None, parent, self.item]
        self.spans.append(row)
        self._stack.append(idx)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self seconds, number of spans).

        Self time is a span's duration minus the durations of its
        children, which never overlap one another.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - covered, calls + 1)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "spans": self.spans}, fh)


class _TracedModule:
    def __init__(self, module: ModuleType, tracer: Tracer):
        self._module = module
        self._tracer = tracer
        self._prefix = module.__name__.rsplit(".", 1)[-1] + "."

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if attr.startswith("_") or isinstance(value, type) or not callable(value):
            return value
        return _traced(value, self._tracer, self._prefix + attr)


def _traced(fn, tracer: Tracer, name: str):
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return traced


def span_cost(calls: int = 5000) -> float:
    """Seconds one traced call adds to the same call untraced: the
    tracer's own bookkeeping, without the noise of comparing two passes."""
    def noop():
        return None
    traced = _traced(noop, Tracer(), "noop")
    costs = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        costs.append((t1 - t0) - (time.perf_counter() - t1))
    return max(min(costs), 0.0) / calls


class Api:
    """The six nashforge modules, traced when a tracer is given."""

    def __init__(self, package, tracer: Tracer | None = None):
        self.tracer = tracer
        for name in MODULES:
            module = getattr(package, name)
            setattr(self, name, module if tracer is None else _TracedModule(module, tracer))

    @contextmanager
    def span(self, name: str):
        """A span around a composite step; no-op when untraced."""
        if self.tracer is None:
            yield
        else:
            with self.tracer.span(name):
                yield

    @contextmanager
    def item(self, item_id):
        """Tag the spans of one work item and group them under a parent."""
        if self.tracer is None:
            yield
            return
        previous, self.tracer.item = self.tracer.item, item_id
        try:
            with self.tracer.span("bench.item"):
                yield
        finally:
            self.tracer.item = previous
