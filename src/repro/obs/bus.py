"""The event bus: the single fan-out point of the observability layer.

Producers hold an optional :class:`EventBus` and test its truthiness
before *constructing* an event::

    bus = self.obs
    if bus:                       # False when nobody is listening
        bus.emit(RuleFired(...))

An unattached bus (or ``None``) therefore costs one attribute read and
one boolean test on the hot path -- the null-sink fast path the
benchmarks guard (observability overhead <= 10% with no subscribers).

Subscribers are plain callables; an optional ``kinds`` filter restricts
delivery to the given event classes.  A producer that emits many events
of a few classes asks :meth:`EventBus.wants` once instead: a bus whose
subscribers all filter those classes out is as good as no bus.  The
statement path does this for :data:`~repro.obs.events.ENGINE_EVENTS`,
so a served read with only a circuit breaker listening builds no rule
or operator events.  A failing subscriber is
unsubscribed after :data:`MAX_SUBSCRIBER_ERRORS` consecutive errors
rather than poisoning the rewrite, because observability must never
change query results.  The detachment is itself observable: the bus
bumps an ``obs.subscribers.detached`` counter on its (optional)
metrics registry and delivers a
:class:`~repro.obs.events.SubscriberDetached` event to the remaining
subscribers, so a dashboard that suddenly goes quiet can be told apart
from a pipeline that went idle.

The bus is thread-safe for the serving layer: the subscriber list is
guarded by a lock and emission iterates over an immutable copy, so a
subscribe/unsubscribe racing an ``emit`` from another session can never
corrupt delivery (copy-on-iterate).  Handlers themselves may run
concurrently and must do their own locking (``MetricsRegistry`` does).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Type

from repro.obs.events import Event

__all__ = ["EventBus", "Subscription"]

MAX_SUBSCRIBER_ERRORS = 3


class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`; call
    :meth:`cancel` (or ``EventBus.unsubscribe``) to detach."""

    __slots__ = ("bus", "handler", "kinds", "errors")

    def __init__(self, bus: "EventBus", handler: Callable[[Event], None],
                 kinds: Optional[frozenset]):
        self.bus = bus
        self.handler = handler
        self.kinds = kinds
        self.errors = 0

    def accepts(self, event: Event) -> bool:
        return self.kinds is None or type(event) in self.kinds

    def cancel(self) -> None:
        self.bus._drop(self)


class EventBus:
    """Synchronous pub/sub for pipeline events.

    ``metrics`` is an optional :class:`~repro.obs.metrics
    .MetricsRegistry` that receives the bus's own health counters
    (currently ``obs.subscribers.detached``).
    """

    __slots__ = ("_subscriptions", "_lock", "metrics")

    def __init__(self, metrics=None):
        self._subscriptions: list[Subscription] = []
        self._lock = threading.Lock()
        self.metrics = metrics

    # -- subscriber management ----------------------------------------------
    def subscribe(self, handler: Callable[[Event], None],
                  kinds: Optional[Iterable[Type[Event]]] = None,
                  ) -> Subscription:
        """Attach ``handler``; ``kinds`` limits the delivered classes."""
        sub = Subscription(
            self, handler, None if kinds is None else frozenset(kinds)
        )
        with self._lock:
            # rebind instead of append: emit() reads the list reference
            # without the lock, so it must always see a complete list
            self._subscriptions = self._subscriptions + [sub]
        return sub

    def unsubscribe(self, handler: Callable[[Event], None]) -> None:
        # equality, not identity: bound methods are recreated per access
        with self._lock:
            self._subscriptions = [
                s for s in self._subscriptions if s.handler != handler
            ]

    def _drop(self, sub: Subscription) -> None:
        with self._lock:
            if sub in self._subscriptions:
                self._subscriptions = [
                    s for s in self._subscriptions if s is not sub
                ]

    @property
    def active(self) -> bool:
        return bool(self._subscriptions)

    def __bool__(self) -> bool:
        return bool(self._subscriptions)

    def wants(self, kinds: frozenset) -> bool:
        """True when some subscriber accepts at least one of the event
        classes ``kinds`` -- asked once by a producer before it builds
        events of those classes."""
        return any(sub.kinds is None or not sub.kinds.isdisjoint(kinds)
                   for sub in self._subscriptions)

    # -- emission -------------------------------------------------------------
    def emit(self, event: Event) -> None:
        # the list is never mutated in place (subscribe/unsubscribe
        # rebind it under the lock), so one reference read yields an
        # immutable snapshot -- the emit hot path stays lock-free
        for sub in self._subscriptions:
            if not sub.accepts(event):
                continue
            try:
                sub.handler(event)
                sub.errors = 0
            except Exception:
                sub.errors += 1
                if sub.errors >= MAX_SUBSCRIBER_ERRORS:
                    self._drop(sub)
                    self._note_detached(sub)

    def _note_detached(self, sub: Subscription) -> None:
        """Make a silent detachment loud: count it and tell whoever is
        still listening (the dropped subscriber is already out of the
        list, so the recursion depth is bounded by the subscriber
        count)."""
        if self.metrics is not None:
            self.metrics.inc("obs.subscribers.detached")
        if self._subscriptions:
            from repro.obs.events import SubscriberDetached
            self.emit(SubscriberDetached(
                handler=repr(sub.handler), errors=sub.errors,
            ))
