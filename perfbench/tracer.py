"""Span tracer that wraps named functions of the nbqc package from outside.

Each call of a wrapped function records a span (name, start, end,
parent). Self time is a span's duration minus the durations of its direct
children, so it stays correct under recursion; summed over all spans it
never counts an interval twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


class Tracer:
    def __init__(self, names, counters=None) -> None:
        """`names` are "module.function" or "module.Class.method" under the
        nbqc package. `counters` maps a name to f(args, result) -> number,
        summed over that name's calls."""
        self.names = list(names)
        self.counters = dict(counters or {})
        self.spans: list[tuple[int, float, float, int]] = []
        self.counts = {name: 0 for name in self.counters}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = self.counters.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name_id, start, clock(), parent)
                stack.pop()
            if counter is not None:
                self.counts[name] += counter(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every name that exists; a name the package no longer has is
        skipped and reports zero calls. A module-level function is replaced
        in every nbqc namespace that holds it, under any alias."""
        modules = [m for k, m in sys.modules.items() if k == "nbqc" or k.startswith("nbqc.")]
        for name_id, name in enumerate(self.names):
            mod_name, *path = name.split(".")
            try:
                owner = importlib.import_module(f"nbqc.{mod_name}")
            except ModuleNotFoundError:
                continue
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            fn = getattr(owner, path[-1], None)
            if fn is None:
                continue
            traced = self._wrap(name_id, name, fn)
            if isinstance(owner, type):
                self._set(owner, path[-1], traced)
                continue
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._set(mod, attr, traced)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, self seconds and total (inclusive) seconds.
        Total time counts only outermost spans of a name, so recursion does
        not inflate it."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for i, (name_id, start, end, parent) in enumerate(spans):
            rec = out[self.names[name_id]]
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name_id:
                p = spans[p][3]
            if p < 0:
                rec["total_s"] += end - start
        return out
