"""The statement registry: every in-flight statement, killable by id.

One :class:`StatementRegistry` per :class:`~repro.engine.database
.Database`.  ``begin()`` mints a ``q<N>`` id, parks the statement's
:class:`~repro.lifecycle.context.QueryContext` in the active table and
returns it; ``finish()`` retires it into a small done-ring so
``sys.queries`` can show recently completed statements (phase
``done``/``cancelled``/``failed``) next to the running ones.

``kill(query_id)`` is the server-side cancellation entry point: it
pulls the context's cancel token from the caller's thread; the
evaluating thread observes it at its next cooperative check.  The
registry never interrupts anything itself -- it is a name table plus
a cancel-token switchboard, which is what makes it safe to call from
the CLI's Ctrl-C handler and ``Server.kill`` alike.

Thread-safety: one mutex around the tables; reads used by
``sys.queries`` take a list copy under it.  The registry never takes
the database's writer lock (asserted by the introspection tests).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Optional

from repro.lifecycle.context import QueryContext

__all__ = ["StatementRegistry"]

_DONE_RING = 32  # recently finished statements kept for sys.queries


class StatementRegistry:
    """Thread-safe table of in-flight (and recently done) statements."""

    def __init__(self, done_capacity: int = _DONE_RING):
        self._lock = threading.Lock()
        self._active: dict[str, QueryContext] = {}
        self._done: deque = deque(maxlen=max(1, done_capacity))
        self._ids = itertools.count(1)
        # wired by the Server when it mounts; falsy means off
        self.obs = None
        self.metrics = None

    # -- lifecycle ------------------------------------------------------------
    def begin(self, context: Optional[QueryContext] = None,
              **kwargs) -> QueryContext:
        """Register one statement; mints the id (and the context, when
        only keyword settings are given)."""
        with self._lock:
            query_id = f"q{next(self._ids)}"
        if context is None:
            context = QueryContext(query_id=query_id, **kwargs)
        else:
            context.query_id = query_id
        with self._lock:
            self._active[context.query_id] = context
        return context

    def finish(self, context: QueryContext,
               outcome: str = "done") -> None:
        """Retire one statement into the done-ring.

        ``outcome`` is the terminal phase ``sys.queries`` shows:
        ``done``, ``cancelled``, ``failed`` or ``truncated``.
        """
        context.finished = time.perf_counter()
        context.enter_phase(outcome)
        with self._lock:
            self._active.pop(context.query_id, None)
            self._done.append(context)

    # -- cancellation ---------------------------------------------------------
    def kill(self, query_id: str, reason: str = "kill") -> bool:
        """Pull the cancel token of one in-flight statement.

        Returns True when the statement existed and was not already
        cancelled; False otherwise (already finished ids are not an
        error -- kills race completions by nature).
        """
        with self._lock:
            context = self._active.get(query_id)
        if context is None:
            return False
        pulled = context.cancel(reason)
        if pulled:
            self._note_cancel(context, reason)
        return pulled

    def cancel_all(self, reason: str = "kill") -> list[str]:
        """Pull every in-flight cancel token (the CLI's Ctrl-C path);
        returns the ids actually cancelled."""
        with self._lock:
            contexts = list(self._active.values())
        cancelled = []
        for context in contexts:
            if context.cancel(reason):
                self._note_cancel(context, reason)
                cancelled.append(context.query_id)
        return cancelled

    def _note_cancel(self, context: QueryContext, reason: str) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("lifecycle.cancels")
            metrics.inc(f"lifecycle.cancels.{reason}")
        bus = self.obs
        if bus:
            from repro.obs.events import StatementCancelled
            bus.emit(StatementCancelled(
                query_id=context.query_id, session=context.session,
                reason=reason, phase=context.phase,
                elapsed_ms=context.elapsed_ms(),
            ))

    # -- introspection --------------------------------------------------------
    def active(self) -> list[QueryContext]:
        with self._lock:
            return sorted(self._active.values(),
                          key=lambda c: c.query_id)

    def recent(self) -> list[QueryContext]:
        """The done-ring, oldest first."""
        with self._lock:
            return list(self._done)

    def get(self, query_id: str) -> Optional[QueryContext]:
        with self._lock:
            return self._active.get(query_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._active)
