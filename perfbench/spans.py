"""Outside-in tracing: wrap public library names, aggregate span self time.

The tracer replaces a function at the name its callers look it up under
(a module global or a class attribute), so the library itself is not
changed.  A span's self time is its duration minus the time covered by its
child spans; calls are single-threaded, so the children of a span are
exactly the spans that start and end while it is the innermost open one.
Spans are aggregated per (phase, name) as they close rather than kept, so a
traced run's memory does not grow with the number of calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class SpanStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.phase = "setup"
        self.stats: dict[tuple[str, str], SpanStat] = {}
        self.wrapped: list[str] = []
        self.absent: list[str] = []
        self._child_time: list[float] = []   # one accumulator per open span
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name: str, func: Callable, *args, **kwargs):
        """Run ``func`` inside a span called ``name``."""
        clock = self.clock
        stack = self._child_time
        stack.append(0.0)
        start = clock()
        try:
            return func(*args, **kwargs)
        finally:
            duration = clock() - start
            children = stack.pop()
            if stack:
                stack[-1] += duration
            stat = self.stats.get((self.phase, name))
            if stat is None:
                stat = self.stats[(self.phase, name)] = SpanStat()
            stat.calls += 1
            stat.total_s += duration
            stat.self_s += duration - children
            if duration > stat.max_s:
                stat.max_s = duration

    def wrap(self, path: str, name: str, after: Callable | None = None) -> None:
        """Trace every call made through the dotted ``path`` as span ``name``.

        ``path`` names a module global or a class attribute, such as
        ``emoclf.features.FittedExtractor.vectorize``.  A path that does not
        resolve is recorded as absent instead of failing, so the tracer
        outlives refactors.  ``after(args, kwargs, result)`` runs once the
        span has closed.
        """
        owner, attr = _resolve_owner(path)
        raw = _raw_attribute(owner, attr)
        if raw is None:
            self.absent.append(path)
            return
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            result = tracer.call(name, func, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._restore.append((owner, attr, raw))
        self.wrapped.append(path)

    @contextlib.contextmanager
    def phase_as(self, phase: str):
        """Attribute spans to ``phase`` for the duration of the block."""
        saved, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = saved

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def phase_stats(self, phase: str) -> dict[str, SpanStat]:
        return {name: stat for (p, name), stat in self.stats.items() if p == phase}


def _resolve_owner(path: str) -> tuple[object, str]:
    """(object holding the last name, last name); the object is None if missing."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part, None)
        return owner, parts[-1]
    return None, parts[-1]


def _raw_attribute(owner: object, attr: str):
    if owner is None:
        return None
    if isinstance(owner, type):
        return vars(owner).get(attr)
    raw = getattr(owner, attr, None)
    return raw if callable(raw) else None
