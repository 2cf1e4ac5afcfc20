"""Outside-in span tracer for the ibpnet benchmark.

The tracer wraps public functions and methods of the library's modules from
the outside (nothing under ``src/`` is edited) and records one span per call:
name, start, end and the index of the enclosing span. Spans stay in memory
until the run ends. ``Tracer.restore`` puts every original attribute back.

Self time of a span is its duration minus the time covered by its direct
children. Calls are single-threaded and strictly nested, so the children of
one span never overlap and their durations simply add up.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    """Records spans around patched callables; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attr, original)

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._stack.pop()
        self.spans[idx].end = self.clock()

    @contextmanager
    def span(self, name: str):
        """Record one span around a block (the benchmark's own phases)."""
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name_of(args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    def patch(self, owner, attr: str, name: str):
        """Replace owner.attr (a module function) with a span-recording wrapper."""
        self._install(owner, attr, lambda args: name)

    def patch_method(self, cls, attr: str, name_of_self):
        """Wrap a method defined on cls itself (not inherited); the span name
        is name_of_self(self)."""
        self._install(cls, attr, lambda args: name_of_self(args[0]))

    def _install(self, owner, attr, name_of):
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {attr}")
        original = vars(owner)[attr]
        setattr(owner, attr, self._wrap(original, name_of))
        self._patches.append((owner, attr, original))

    def restore(self):
        """Undo every patch, newest first, so each original object is back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> int:
        return len(self._patches)


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own

