"""Outside-in tracing: wrap public functions where their callers look them up.

A Tracer swaps attributes of modules or classes (``sixvertex.matchgate.
pfaffian_sparse``, ``RotationMap.faces``) for wrappers that record one span
per call: name, start, end, parent span and an optional note taken from the
call's arguments or result.  Spans stay in memory.  ``installed`` puts the
originals back when it exits, also when the traced code raised.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

# observe(args, kwargs, result) -> note; result is None when the call raised
Observe = Callable[[tuple, dict, Any], Any]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    note: Any = None


@dataclass(frozen=True)
class Target:
    owner: Any  # a module or a class
    attr: str
    name: str  # the span name
    observe: Optional[Observe] = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, target: Target, func: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name, observe = target.name, target.observe

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                span.end = clock()
                stack.pop()
                if observe is not None:
                    span.note = observe(args, kwargs, result)

        return traced

    @contextmanager
    def installed(self, targets: Sequence[Target]) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for target in targets:
                original = vars(target.owner)[target.attr]
                saved.append((target.owner, target.attr, original))
                setattr(target.owner, target.attr, self._wrap(target, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._stack.clear()


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Seconds per span name: each span's duration minus the part of it that
    its child spans cover (overlapping children are counted once)."""
    children: list[list[int]] = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(idx)
    out: dict[str, float] = {}
    for idx, span in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[idx]
        )
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out[span.name] = out.get(span.name, 0.0) + (span.end - span.start - covered)
    return out
