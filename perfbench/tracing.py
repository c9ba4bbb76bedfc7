"""Spans recorded from the benchmark's own files, around each layer.

The program has no spans of its own yet, so the traced run wraps the
names callers bind (``module.attr`` replaced for the duration of a run,
restored after) and times every call.  Spans stay in memory; the
workload process turns them into a layer table when it ends.

Self time is a partition of the traced wall time: every instant goes to
the most recently started span still open, across all threads of the
process, and instants with no open span go to the remainder.  On one
thread that is the usual "duration minus children"; with the service's
threads it attributes time to whatever started last, so self times plus
the remainder add up to the wall time exactly.  Work done in another
process (the fleet's forked worker) has no span here and lands in the
remainder.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """In-memory span recorder; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: Appended to from several threads: ``list.append`` is atomic, and
        #: a lock here could be copied held into the fleet's forked worker.
        self.spans: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        span = Span(name, time.perf_counter_ns(), attrs=attrs)
        try:
            yield attrs
        finally:
            span.end_ns = time.perf_counter_ns()
            self.spans.append(span)

    # ------------------------------------------------------------------
    def wrap(self, target: str, name: str,
             observe: Callable[[tuple, dict, Any, dict], None] | None = None,
             ) -> None:
        """Time every call of ``target`` (``"pkg.module:attr"`` or
        ``"pkg.module:Class.attr"``) as span ``name``.

        ``observe(args, kwargs, result, attrs)`` may add attributes from
        the call and its result.  Only callers that look the name up
        after this point see the wrapper, which is why the names wrapped
        are the ones each caller imported into its own module.
        """
        if not self.enabled:
            return
        module_name, _, path = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = owner.__dict__[attr]
        spans = self.spans

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter_ns())
            try:
                result = original(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                spans.append(span)
            if observe is not None:
                observe(args, kwargs, result, span.attrs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))


def self_times(spans: list[Span], start_ns: int, end_ns: int,
               ) -> tuple[dict[str, float], float]:
    """Partition ``[start_ns, end_ns]`` among span names.

    Returns ``({name: self seconds}, remainder seconds)``.  Each elementary
    interval between span boundaries goes to the open span that started
    last (ties: the one that ends first, i.e. the inner one).
    """
    events: list[tuple[int, int, int]] = []
    for index, span in enumerate(spans):
        lo, hi = max(span.start_ns, start_ns), min(span.end_ns, end_ns)
        if hi > lo:
            events.append((lo, 1, index))
            events.append((hi, 0, index))
    events.sort()
    open_spans: set[int] = set()
    owned: dict[str, int] = {}
    remainder = 0
    cursor = start_ns

    def owner() -> int | None:
        if not open_spans:
            return None
        return max(open_spans, key=lambda i: (spans[i].start_ns,
                                              -spans[i].end_ns, i))

    for at, is_open, index in events:
        if at > cursor:
            current = owner()
            if current is None:
                remainder += at - cursor
            else:
                name = spans[current].name
                owned[name] = owned.get(name, 0) + (at - cursor)
            cursor = at
        if is_open:
            open_spans.add(index)
        else:
            open_spans.discard(index)
    remainder += max(0, end_ns - cursor)
    return ({name: ns / 1e9 for name, ns in sorted(owned.items())},
            remainder / 1e9)
