"""A span tracer that lives entirely in the benchmark.

In a traced run, :func:`install` replaces the public entry points of each
layer with wrappers that record a span (name, layer, start, end, parent
span, operation id) and puts the originals back on :meth:`Patches.restore`.
Spans stay in memory until the run ends. Parents come from a per-thread
stack, so a span's parent is the innermost wrapped call still open on the
same thread; the operation id is whatever the driving loop set last,
which is exact because every workload keeps one request in flight.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: int
    end: int
    parent: Optional[int]
    op: Optional[int]
    thread: int

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; opened spans close in LIFO order."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        layer: str,
        fn: Callable,
        observe: Optional[Callable[[Optional[int], object], None]] = None,
    ) -> Callable:
        """``fn`` recording a span per call; ``observe(op, result)`` also
        sees each return value."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                sid = tracer._next
                tracer._next += 1
            parent = stack[-1] if stack else None
            op = tracer.op
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(op, result)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                span = Span(sid, name, layer, start, end, parent, op,
                            threading.get_ident())
                with tracer._lock:
                    tracer.spans.append(span)

        traced.__wrapped__ = fn
        return traced


_INHERITED = object()


class Patches:
    """Attribute replacements that can be undone in reverse order.

    An attribute the owner only inherits is shadowed on the owner and
    removed again on restore.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[int, int]:
    """Per span id: its duration minus the time its child spans cover.

    Children are clipped to the parent's interval before their union is
    taken, so overlapping or overhanging children never drive a self time
    negative.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    by_id = {span.sid: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None:
            continue
        start = max(span.start, parent.start)
        end = min(span.end, parent.end)
        if end > start:
            children.setdefault(parent.sid, []).append((start, end))
    return {
        span.sid: span.duration - _union_length(children.get(span.sid, ()))
        for span in spans
    }


def check_nesting(spans: List[Span]) -> List[str]:
    """Violations of "a child never exceeds its parent"; empty when sound."""
    by_id = {span.sid: span for span in spans}
    covered: Dict[int, int] = {}
    problems: List[str] = []
    for span in spans:
        if span.parent is None:
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            problems.append(f"span {span.sid} ({span.name}) lost its parent")
            continue
        if span.start < parent.start or span.end > parent.end:
            problems.append(
                f"span {span.sid} ({span.name}) outside parent {parent.name}"
            )
        covered[parent.sid] = covered.get(parent.sid, 0) + span.duration
    for sid, total in covered.items():
        if total > by_id[sid].duration:
            problems.append(
                f"children of span {sid} ({by_id[sid].name}) sum past it"
            )
    return problems


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer and per span name: calls, inclusive ms and self ms."""
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        for key in (span.layer, span.name):
            entry = totals.setdefault(key, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["ms"] += span.duration / 1e6
            entry["self_ms"] += selfs[span.sid] / 1e6
    return totals


def install(tracer: Tracer, targets: Iterable[tuple]) -> Patches:
    """Wrap each ``(owner, attribute, span name, layer[, observe])`` target."""
    patches = Patches()
    try:
        for owner, attr, name, layer, *observe in targets:
            wrapped = tracer.wrap(name, layer, getattr(owner, attr), *observe)
            patches.replace(owner, attr, wrapped)
    except BaseException:
        patches.restore()
        raise
    return patches
