"""Span tracer that wraps adiaprep's public functions from outside the library.

Every module binds its imports by name (``from .linalg import eig_hermitian``),
so wrapping ``linalg.eig_hermitian`` alone would miss the calls made through
``evolve.eig_hermitian`` and friends. ``Tracer.installed`` therefore replaces
each public function in every module namespace that holds it, plus the public
methods of ``config.ExperimentConfig``, and restores the originals on exit.

Spans are kept in memory as tuples
``(span_id, parent_id, op_id, name, start_ns, end_ns)``; parent 0 means the
span was opened directly by the benchmark, op 0 means it ran during set-up.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable
from time import perf_counter_ns

LAYERS = ("linalg", "model", "evolve", "measure", "analyze", "config", "runner", "svgplot")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.op_id = 0
        self._stack = [0]
        self._next_id = 1
        # name -> callback(args, kwargs) run before the call, outside its span
        self.on_call: dict[str, Callable[[tuple, dict], Any]] = {}
        # name -> callback(result) run after the call, outside its span
        self.on_return: dict[str, Callable[[Any], Any]] = {}

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            hook = self.on_call.get(name)
            if hook is not None:
                hook(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((span_id, parent, self.op_id, name, start, end))
            hook = self.on_return.get(name)
            if hook is not None:
                hook(result)
            return result

        return functools.update_wrapper(traced, fn)

    @contextmanager
    def installed(self, package):
        """Wrap every public function of the package's layers while active."""
        wrappers = {}
        restore = []
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        # configs are built through methods (validate, build_model, ...)
        cls = package.config.ExperimentConfig
        for attr, obj in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                restore.append((cls, attr, obj))
                setattr(cls, attr, self.wrap(f"config.{attr}", obj))
        namespaces = [package] + [getattr(package, m) for m in LAYERS]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    restore.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[obj])
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def write(self, path: Path, header: str) -> None:
        """Dump all spans as gzip-compressed tab-separated lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write(f"# {header}\nspan_id\tparent_id\top_id\tname\tstart_ns\tend_ns\n")
            f.writelines("\t".join(map(str, span)) + "\n" for span in self.spans)


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive ns and self ns (minus direct children)."""
    child_ns: dict[int, int] = {}
    for span_id, parent, _op, _name, start, end in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    totals: dict[str, dict[str, float]] = {}
    for span_id, _parent, _op, name, start, end in spans:
        entry = totals.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["ns"] += end - start
        entry["self_ns"] += end - start - child_ns.get(span_id, 0)
    return totals
