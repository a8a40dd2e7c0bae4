"""Per-session state and the session registry.

The CLI used to toggle ``.checked`` / ``.deadline`` by mutating the
shared :class:`~repro.engine.database.Database` -- which leaks one
caller's settings into every other caller the moment the database is
served.  A :class:`Session` owns those knobs instead -- one
:class:`~repro.engine.options.StatementOptions` object, handed whole
to every database call -- so two sessions with different deadlines can
share one database without observing each other.

:class:`SessionManager` is the thread-safe registry: sessions are
opened (optionally under a caller-chosen id), looked up per request,
and reaped after ``idle_timeout_s`` without activity.  Reaping is
opportunistic -- it runs on every ``open``/``get`` and on explicit
``reap()`` calls -- so there is no background thread to leak.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Optional

from repro.engine.options import StatementOptions
from repro.errors import SessionExpired

__all__ = ["SessionSettings", "Session", "SessionManager"]


# the per-session knobs *are* the engine's per-statement options: one
# declaration (repro.engine.options), exported here under its serving
# name
SessionSettings = StatementOptions


class Session:
    """One caller's view of a served database.

    All query entry points apply this session's settings as per-call
    overrides; nothing here mutates the shared database, so sessions
    are isolated by construction.
    """

    def __init__(self, session_id: str, db,
                 settings: Optional[SessionSettings] = None,
                 clock: Callable[[], float] = time.monotonic,
                 obs=None):
        self.id = session_id
        self.db = db
        self.settings = settings or SessionSettings()
        self._clock = clock
        self.created = clock()
        self.last_used = self.created
        self.statements = 0
        self.closed = False
        # the serving bus (if any): per-request rewrite/eval events are
        # routed here so exporters see them trace-stamped; falsy when
        # nobody subscribed, which the engine treats as "off"
        self.obs = obs

    # -- bookkeeping ----------------------------------------------------------
    def touch(self) -> None:
        self.last_used = self._clock()
        self.statements += 1

    def idle_for(self) -> float:
        return self._clock() - self.last_used

    # -- the database surface, with per-session overrides ---------------------
    def query(self, source):
        self.touch()
        return self.db.query(source, options=self.settings,
                             session=self.id, obs=self.obs)

    def execute(self, script):
        self.touch()
        return self.db.execute(script, options=self.settings,
                               session=self.id, obs=self.obs)

    def query_with_stats(self, source: str, obs=None):
        self.touch()
        return self.db.query_with_stats(source, obs=obs,
                                        options=self.settings)

    def explain(self, source: str, verbose: bool = False) -> str:
        self.touch()
        return self.db.explain(source, verbose=verbose,
                               options=self.settings)

    def explain_json(self, source: str, execute: bool = False,
                     analyze: bool = False) -> dict:
        self.touch()
        return self.db.explain_json(
            source, execute=execute, analyze=analyze,
            options=self.settings, session=self.id,
        )

    def __repr__(self) -> str:
        return (f"Session({self.id!r}, {self.settings.describe()}, "
                f"{self.statements} statement(s))")


class SessionManager:
    """Thread-safe registry of live sessions with idle reaping."""

    def __init__(self, db, idle_timeout_s: float = 300.0,
                 clock: Callable[[], float] = time.monotonic,
                 obs=None):
        self.db = db
        self.idle_timeout_s = idle_timeout_s
        self.obs = obs
        self._clock = clock
        self._lock = threading.Lock()
        self._sessions: dict[str, Session] = {}
        self._ids = itertools.count(1)

    # -- lifecycle ------------------------------------------------------------
    def open(self, session_id: Optional[str] = None,
             settings: Optional[SessionSettings] = None) -> Session:
        self.reap()
        with self._lock:
            if session_id is None:
                session_id = f"s{next(self._ids)}"
            elif session_id in self._sessions:
                raise SessionExpired(
                    f"session {session_id!r} already exists",
                    session_id=session_id,
                )
            session = Session(
                session_id, self.db, settings, clock=self._clock,
                obs=self.obs,
            )
            self._sessions[session_id] = session
        bus = self.obs
        if bus:
            from repro.obs.events import SessionOpened
            bus.emit(SessionOpened(session=session_id))
        return session

    def get(self, session_id: str) -> Session:
        self.reap()
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise SessionExpired(
                f"no session {session_id!r} (never opened, closed, or "
                f"idle-reaped)", session_id=session_id,
            )
        return session

    def close(self, session_id: str) -> None:
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise SessionExpired(
                f"no session {session_id!r}", session_id=session_id
            )
        session.closed = True
        self._emit_closed(session, "closed")

    def reap(self) -> list[str]:
        """Close every session idle past the timeout; returns their ids."""
        now = self._clock()
        reaped: list[Session] = []
        with self._lock:
            for sid, session in list(self._sessions.items()):
                if now - session.last_used > self.idle_timeout_s:
                    reaped.append(self._sessions.pop(sid))
        for session in reaped:
            session.closed = True
            self._emit_closed(session, "reaped")
        return [s.id for s in reaped]

    def _emit_closed(self, session: Session, reason: str) -> None:
        bus = self.obs
        if bus:
            from repro.obs.events import SessionClosed
            bus.emit(SessionClosed(
                session=session.id, reason=reason,
                idle=session.idle_for(),
            ))

    # -- introspection --------------------------------------------------------
    def sessions(self) -> list[Session]:
        with self._lock:
            return sorted(self._sessions.values(), key=lambda s: s.id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._sessions
