"""Hierarchical timed spans over the optimize -> block -> rule -> method
pipeline.

A :class:`Tracer` can be driven two ways:

* directly, through the :meth:`Tracer.span` context manager (used by
  tests and ad-hoc instrumentation);
* by attaching it to an :class:`~repro.obs.bus.EventBus`
  (:meth:`Tracer.attach`), where it folds the event stream into a span
  tree: ``PhaseStart/PhaseEnd`` and ``BlockStart/BlockEnd`` open and
  close spans, a ``RuleFired`` becomes a leaf span under the current
  block (adopting the ``ConstraintCheck`` / ``MethodCall`` point events
  recorded since the previous rule boundary), a ``PassEnd`` becomes a
  mark on the enclosing span, and an ``EvalOp`` a leaf under the
  ``evaluate`` phase.  A ``RuleAttempt`` miss leaves no span (the
  metrics count it): it only drops the point events it adopted.

All timing uses the monotonic clock (``time.perf_counter``), so span
durations are non-negative and unaffected by wall-clock jumps.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Optional

from repro.obs import events as ev

__all__ = ["Span", "Tracer"]


class Span:
    """One timed node of the trace tree."""

    __slots__ = ("name", "kind", "start", "end", "attrs", "children")

    def __init__(self, name: str, kind: str = "span",
                 start: float = 0.0, attrs: Optional[dict] = None):
        self.name = name
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.attrs = dict(attrs or {})
        self.children: list["Span"] = []

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return max(0.0, self.end - self.start)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (f"Span({self.kind}:{self.name}, "
                f"{self.duration * 1e3:.3f}ms, "
                f"{len(self.children)} children)")


class Tracer:
    """Builds a tree of :class:`Span` nodes from spans or bus events.

    ``clock`` is an injectable monotonic clock, for deterministic tests.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._pending: list[Span] = []

    # -- direct span API -----------------------------------------------------
    def push(self, name: str, kind: str = "span", **attrs) -> Span:
        span = Span(name, kind, self._clock(), attrs)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def pop(self, **attrs) -> Optional[Span]:
        if not self._stack:
            return None
        span = self._stack.pop()
        span.end = self._clock()
        span.attrs.update(attrs)
        return span

    @contextmanager
    def span(self, name: str, kind: str = "span", **attrs):
        span = self.push(name, kind, **attrs)
        try:
            yield span
        finally:
            self.pop()

    def mark(self, name: str, kind: str = "mark", **attrs) -> Span:
        """A zero-duration child of the current span."""
        now = self._clock()
        span = Span(name, kind, now, attrs)
        span.end = now
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        return span

    def _leaf(self, name: str, kind: str, duration: float,
              attrs: dict, children: Optional[list[Span]] = None) -> Span:
        """A completed child span whose duration was measured by the
        producer (the tracer only knows the end time)."""
        now = self._clock()
        span = Span(name, kind, now - duration, attrs)
        span.end = now
        if children:
            span.children.extend(children)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        return span

    # -- output ---------------------------------------------------------------
    def span_tree(self) -> list[Span]:
        return list(self.roots)

    def to_json(self) -> list[dict]:
        return [root.to_dict() for root in self.roots]

    def dumps(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_json(), indent=indent)

    def reset(self) -> None:
        self.roots = []
        self._stack = []
        self._pending = []

    # -- event-stream folding -------------------------------------------------
    def attach(self, bus) -> None:
        """Subscribe to ``bus`` and fold its events into spans."""
        bus.subscribe(self.on_event)

    def on_event(self, event: ev.Event) -> None:
        if isinstance(event, ev.PhaseStart):
            self.push(event.phase, kind="phase")
        elif isinstance(event, ev.PhaseEnd):
            self._pending.clear()
            self.pop(duration_reported=event.duration)
        elif isinstance(event, ev.BlockStart):
            self.push(event.block, kind="block",
                      pass_index=event.pass_index,
                      limit=event.limit, count=event.count)
        elif isinstance(event, ev.BlockEnd):
            self._pending.clear()
            self.pop(applications=event.applications,
                     checks=event.checks,
                     budget_consumed=event.budget_consumed)
        elif isinstance(event, ev.RuleFired):
            adopted, self._pending = self._pending, []
            self._leaf(event.rule, "rule", event.duration, {
                "block": event.block,
                "path": list(event.path),
                "size_before": event.size_before,
                "size_after": event.size_after,
            }, children=adopted)
        elif isinstance(event, ev.RuleAttempt):
            if not event.matched:
                self._pending.clear()
        elif isinstance(event, ev.MethodCall):
            now = self._clock()
            span = Span(event.name, "method", now - event.duration, {
                "arity": event.arity, "success": event.success,
            })
            span.end = now
            self._pending.append(span)
        elif isinstance(event, ev.ConstraintCheck):
            now = self._clock()
            span = Span(event.constraint, "constraint", now, {
                "outcome": event.outcome,
            })
            span.end = now
            self._pending.append(span)
        elif isinstance(event, ev.PassEnd):
            self.mark(f"pass {event.pass_index}", kind="pass",
                      changed=event.changed, duration=event.duration)
        elif isinstance(event, ev.EvalOp):
            self._leaf(event.operator, "eval", event.duration, {
                "rows_out": event.rows_out,
            })
