"""Span tracing of the gpcn layers from outside the package.

``Tracer.install`` replaces every public function defined in a traced gpcn
module with a timing wrapper, at every module that binds it: ``propagate``
is called through ``gpcn.bp``, ``gpcn.pc`` and ``gpcn.attacks`` as well as
``gpcn.graph``, and ``train_bp``/``train_pc`` through ``gpcn.harness``. All
bindings of one function share one wrapper, so each call is one span.

Spans (name, start, end, parent, work) stay in memory until the run ends.
The parent is the innermost open span. One stack serves every thread: the
harness runs seeds on a thread pool, and the benchmark pins it to a single
worker while the calling thread waits, so at most one thread is inside
traced code at any time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time

LAYERS = ("graph", "nn", "bp", "pc", "calibration", "attacks", "harness")
# Modules whose namespaces hold bindings of layer functions.
BINDERS = LAYERS + ("cli",)

# Work counted per call, beside the call itself.
WORK = {
    "graph.propagate":
        lambda args, kwargs, result: {"cols": result.shape[1]
                                      if result.ndim == 2 else 1},
    "bp.train_bp": lambda args, kwargs, result: {"epochs": args[1].epochs},
    "pc.train_pc": lambda args, kwargs, result: {"epochs": args[1].epochs},
    "attacks.fga_attack":
        lambda args, kwargs, result: {"edits": len(result),
                                      "budget": args[3].budget},
}

# Column count above which a propagate call counts as a feature-width
# product (A_hat X) rather than a hidden-width one (A_hat H).
WIDE_COLS = 64


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        work_fn = WORK.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, None)
            if work_fn is not None:
                spans[index] = (name_id, start, end, parent,
                                work_fn(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        homes = {f"gpcn.{m}": m for m in LAYERS}
        for binder in BINDERS:
            module = importlib.import_module(f"gpcn.{binder}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ not in homes):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(
                        obj, f"{homes[obj.__module__]}.{obj.__name__}")
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (iteration, CLI command)."""
        name_id = self._name_id(name)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name_id, start, end, parent, None)

    def summarize(self, first: int, last: int) -> dict:
        """Per-name totals over spans[first:last], one traced iteration.

        Returns {name: {"calls", "s", "self_s", work counters...}}; calls
        that count columns are also split into wide and narrow ones.
        """
        child_s = {}
        for name_id, start, end, parent, _ in self.spans[first:last]:
            if parent >= first:
                child_s[parent] = child_s.get(parent, 0.0) + (end - start)
        stats: dict[str, dict] = {}
        for index in range(first, last):
            name_id, start, end, parent, work = self.spans[index]
            dur = end - start
            s = stats.setdefault(self.names[name_id],
                                 {"calls": 0, "s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["s"] += dur
            s["self_s"] += dur - child_s.get(index, 0.0)
            for key, value in (work or {}).items():
                s[key] = s.get(key, 0) + value
            if work and "cols" in work:
                width = "wide" if work["cols"] > WIDE_COLS else "narrow"
                s[f"{width}_calls"] = s.get(f"{width}_calls", 0) + 1
                s[f"{width}_s"] = s.get(f"{width}_s", 0.0) + dur
        return stats

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w") as fh:
            for index, (name_id, start, end, parent, work) in enumerate(
                    self.spans):
                record = {"id": index, "name": self.names[name_id],
                          "start": start, "end": end, "parent": parent}
                if work:
                    record["work"] = work
                fh.write(json.dumps(record) + "\n")
