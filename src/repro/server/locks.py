"""Reader-writer isolation primitives for the serving layer.

:class:`ReadWriteLock` is a writer-preference shared/exclusive lock:
any number of readers may hold it at once, a writer holds it alone, and
a waiting writer blocks *new* readers so a steady query stream cannot
starve DML.

:class:`ConcurrencyGuard` is the statement-scoped discipline the
:class:`~repro.engine.database.Database` opts into when it is served
(``db.enable_serving()``): every mutating statement runs under the
exclusive side, every query under the shared side.  Because the DML
paths already stage-then-swap (see ``repro.durability.atomic``), a
reader holding the shared lock observes only statement-boundary states
-- its :class:`SnapshotHandle` names the committed-statement version it
read, and that version cannot move while the handle is live.

The guard is re-entrant per thread (a query issued while the same
thread already holds either side piggybacks on the held lock), which
is what makes ``Database.execute`` scripts -- a write statement
followed by a query -- safe without lock juggling in the engine.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Optional

__all__ = ["ReadWriteLock", "ConcurrencyGuard", "SnapshotHandle"]

# the longest a waiter sleeps before it looks at the writer's owner
_RECOVERY_SLICE_S = 0.1


class ReadWriteLock:
    """A writer-preference shared/exclusive lock.

    Not re-entrant by itself -- :class:`ConcurrencyGuard` layers the
    per-thread re-entrancy on top, keeping this primitive minimal.

    A thread that acquires the write side and dies without releasing
    (a bug, or a hard kill from outside the cooperative protocol)
    would block every later statement forever.  Waiters therefore
    wait in slices of at most ``_RECOVERY_SLICE_S`` and release the
    exclusive side once its recorded owner thread is dead; a live
    writer is never preempted.  ``on_recover`` (optional) is called
    once per recovery.
    """

    def __init__(self, on_recover=None):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        # the thread holding the exclusive side: how a waiter tells a
        # poisoned lock (writer died mid-hold) from a busy one
        self._writer_owner: Optional[threading.Thread] = None
        self.on_recover = on_recover

    # -- shared side ----------------------------------------------------------
    def acquire_read(self, timeout: Optional[float] = None) -> bool:
        with self._cond:
            # writer preference: pending writers bar new readers
            if not self._wait(
                lambda: not self._writer and not self._writers_waiting,
                timeout,
            ):
                return False
            self._readers += 1
            return True

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # -- exclusive side -------------------------------------------------------
    def acquire_write(self, timeout: Optional[float] = None) -> bool:
        with self._cond:
            self._writers_waiting += 1
            try:
                if not self._wait(
                    lambda: not self._writer and self._readers == 0,
                    timeout,
                ):
                    return False
                self._writer = True
                self._writer_owner = threading.current_thread()
                return True
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._writer_owner = None
            self._cond.notify_all()

    def _wait(self, ready, timeout: Optional[float]) -> bool:
        """Wait (holding ``_cond``) until ``ready()``; False when
        ``timeout`` elapses first.  Between slices, a writer whose
        owner thread died is released."""
        end = None if timeout is None else time.monotonic() + timeout
        while not ready():
            owner = self._writer_owner
            if owner is not None and not owner.is_alive():
                self._writer = False
                self._writer_owner = None
                self._cond.notify_all()
                if self.on_recover is not None:
                    self.on_recover()
                continue
            slice_s = _RECOVERY_SLICE_S
            if end is not None:
                slice_s = min(slice_s, end - time.monotonic())
                if slice_s <= 0:
                    return False
            self._cond.wait(slice_s)
        return True

    @contextmanager
    def read(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class SnapshotHandle:
    """The version a reader is pinned to while it holds the shared lock.

    ``version`` counts committed statements; two queries that report the
    same version are guaranteed to have seen byte-identical state.
    """

    __slots__ = ("version",)

    def __init__(self, version: int):
        self.version = version

    def __repr__(self) -> str:
        return f"SnapshotHandle(version={self.version})"


class _HoldState(threading.local):
    """Per-thread re-entrancy bookkeeping (read/write hold depths)."""

    def __init__(self):
        self.read_depth = 0
        self.write_depth = 0


class ConcurrencyGuard:
    """Statement-scoped reader-writer isolation for one Database.

    ``write()`` brackets one mutating statement; on success the
    committed-statement ``version`` advances (a rolled-back statement
    leaves it unchanged, matching the undo-log contract).  ``read()``
    yields a :class:`SnapshotHandle` pinned to the current version.
    """

    def __init__(self, metrics=None):
        self._lock = ReadWriteLock(on_recover=self._note_recovery)
        self._held = _HoldState()
        self._version = 0
        # optional MetricsRegistry: the server points this at its own
        # registry so lock-wait time lands in the per-class latency
        # buckets; None (the default) keeps acquisition untimed
        self.metrics = metrics

    @property
    def version(self) -> int:
        """The committed-statement count (advanced under ``write()``)."""
        return self._version

    @contextmanager
    def read(self):
        held = self._held
        if held.read_depth or held.write_depth:
            # re-entrant: this thread already isolated; a nested
            # acquire under writer preference would self-deadlock
            held.read_depth += 1
            try:
                yield SnapshotHandle(self._version)
            finally:
                held.read_depth -= 1
            return
        self._acquire(self._lock.acquire_read, "read")
        held.read_depth = 1
        try:
            yield SnapshotHandle(self._version)
        finally:
            held.read_depth = 0
            self._lock.release_read()

    def _note_recovery(self) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("server.lock.recovered")

    def _acquire(self, acquire, side: str) -> None:
        metrics = self.metrics
        if metrics is None:
            acquire()
            return
        started = time.perf_counter()
        acquire()
        metrics.bucket(f"server.lock.{side}_wait_seconds").observe(
            time.perf_counter() - started
        )

    @contextmanager
    def write(self):
        with self._exclusive():
            yield
            # success only: a raised (rolled-back) statement must not
            # move the version readers are pinned to
            self._version += 1

    @contextmanager
    def exclusive(self):
        """A write-side hold *without* a version bump: for admin
        operations (checkpoint, fsck) that need a quiescent database
        but do not change its logical state."""
        with self._exclusive():
            yield

    @contextmanager
    def _exclusive(self):
        held = self._held
        if held.write_depth:
            held.write_depth += 1
            try:
                yield
            finally:
                held.write_depth -= 1
            return
        if held.read_depth:
            raise RuntimeError(
                "cannot upgrade a read hold to a write hold"
            )
        self._acquire(self._lock.acquire_write, "write")
        held.write_depth = 1
        try:
            yield
        finally:
            held.write_depth = 0
            self._lock.release_write()
