"""Sessions: per-caller settings, idle reaping, registry safety."""

import threading

import pytest

from repro import Database
from repro.errors import SessionExpired
from repro.obs.bus import EventBus
from repro.obs.events import SessionClosed, SessionOpened
from repro.server.session import (Session, SessionManager,
                                  SessionSettings)


def _db():
    db = Database()
    db.execute("TABLE T (A : NUMERIC, B : NUMERIC)")
    db.execute("INSERT INTO T VALUES (1, 10), (2, 20)")
    return db


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSessionSettings:
    def test_defaults_defer_to_database(self):
        settings = SessionSettings()
        assert settings.rewrite is None
        assert settings.checked is None
        assert settings.timeout_ms is None
        assert settings.describe() == "defaults"

    def test_describe_lists_overrides(self):
        text = SessionSettings(
            rewrite=False, checked=True, timeout_ms=5.0, profile=True
        ).describe()
        assert "rewrite=off" in text
        assert "checked=on" in text
        assert "timeout=5ms" in text
        assert "profile=on" in text


class TestSession:
    def test_query_applies_session_settings(self):
        db = _db()
        session = Session("s1", db)
        session.settings.rewrite = False
        result = session.query("SELECT B FROM T WHERE A = 1")
        assert result.rows == [(10,)]

    def test_sessions_do_not_leak_into_each_other(self):
        """The settings-leakage fix: two sessions over one database
        keep independent checked/timeout settings, and the shared
        Database object is never mutated."""
        db = _db()
        strict = Session("strict", db,
                         SessionSettings(checked=True, timeout_ms=60_000))
        lax = Session("lax", db)
        strict.query("SELECT B FROM T WHERE A = 1")
        assert db.checked is False
        assert db.statement_timeout_ms is None
        lax.query("SELECT B FROM T WHERE A = 1")
        assert strict.settings.checked is True
        assert lax.settings.checked is None

    def test_statement_count_and_touch(self):
        clock = FakeClock()
        session = Session("s1", _db(), clock=clock)
        clock.now = 5.0
        session.query("SELECT A FROM T")
        assert session.statements == 1
        assert session.last_used == 5.0
        assert session.idle_for() == 0.0


class TestSessionManager:
    def test_open_assigns_fresh_ids(self):
        manager = SessionManager(_db())
        first, second = manager.open(), manager.open()
        assert first.id != second.id
        assert len(manager) == 2

    def test_open_rejects_duplicate_id(self):
        manager = SessionManager(_db())
        manager.open("mine")
        with pytest.raises(SessionExpired):
            manager.open("mine")

    def test_get_unknown_session_raises_typed_error(self):
        manager = SessionManager(_db())
        with pytest.raises(SessionExpired) as excinfo:
            manager.get("ghost")
        assert excinfo.value.session_id == "ghost"

    def test_close_removes_session(self):
        manager = SessionManager(_db())
        session = manager.open()
        manager.close(session.id)
        assert session.closed
        with pytest.raises(SessionExpired):
            manager.get(session.id)

    def test_idle_sessions_are_reaped(self):
        clock = FakeClock()
        manager = SessionManager(_db(), idle_timeout_s=10.0, clock=clock)
        idle = manager.open("idle")
        clock.now = 11.0
        busy = manager.open("busy")  # open() reaps opportunistically
        assert idle.id not in manager
        assert busy.id in manager
        assert idle.closed

    def test_activity_defers_reaping(self):
        clock = FakeClock()
        manager = SessionManager(_db(), idle_timeout_s=10.0, clock=clock)
        session = manager.open("s")
        clock.now = 8.0
        manager.get("s").touch()
        clock.now = 16.0  # 8s idle since the touch: still alive
        assert manager.reap() == []
        clock.now = 19.0
        assert manager.reap() == ["s"]

    def test_lifecycle_events(self):
        clock = FakeClock()
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=(SessionOpened, SessionClosed))
        manager = SessionManager(
            _db(), idle_timeout_s=10.0, clock=clock, obs=bus
        )
        manager.open("a")
        manager.close("a")
        manager.open("b")
        clock.now = 20.0
        manager.reap()
        kinds = [(type(e).__name__, getattr(e, "reason", None))
                 for e in seen]
        assert kinds == [
            ("SessionOpened", None), ("SessionClosed", "closed"),
            ("SessionOpened", None), ("SessionClosed", "reaped"),
        ]

    def test_concurrent_open_close_is_safe(self):
        manager = SessionManager(_db(), idle_timeout_s=1e9)
        errors = []

        def churn(tag):
            try:
                for i in range(50):
                    session = manager.open(f"{tag}-{i}")
                    manager.get(session.id)
                    manager.close(session.id)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=churn, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert errors == []
        assert len(manager) == 0
