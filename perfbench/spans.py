"""In-memory span tracing around the public entry points of wirebeam's layers.

A span records its name, start, end and the index of its parent span.  The
tracer wraps functions from the outside: every loaded ``wirebeam`` module
attribute that *is* the original function is replaced by a wrapper, so
callers that imported the name directly are traced too.  A target that no
longer exists is skipped, and its spans then read zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def self_times(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per-name call count, total time and self time.

    Self time is a span's duration minus the durations of its direct
    children; a child's own children are already inside the child.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    totals: dict[str, LayerTotals] = {}
    for i, s in enumerate(spans):
        t = totals.setdefault(s.name, LayerTotals())
        t.calls += 1
        t.total_s += s.end - s.start
        t.self_s += (s.end - s.start) - child_time[i]
    return totals


class Tracer:
    """Records nested spans; single-threaded, like the code it traces."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name):
        """Wrapper recording one span per call; `name` may be a callable
        of the call arguments returning the span name."""
        tracer = self
        pick = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.begin(pick(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(i)

        return traced

    def install(self, targets):
        """Wrap each (module, attribute path, span name) target that exists.

        A dotted attribute path ("Class.method") patches the class; a plain
        name is patched in every loaded wirebeam module that holds it.
        """
        for module_name, path, name in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self.wrap(original, name)
            if outer:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "wirebeam" and mod is not None:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
