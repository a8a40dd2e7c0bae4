"""The one statement path: every surface runs the same stages.

``Database.query`` / ``execute`` / ``explain_json``, sessions, the
server, its clients and a pool worker are thin callers of one staged
function (``Database._statement``), parameterized by one
:class:`~repro.engine.options.StatementOptions`.  These tests pin what
that buys: the same rows, one ``sys.statements`` call and the same
options honoured on every surface; a query-only entry point that
refuses a write *before* anything executes; one parse per statement;
one guard entry per served statement; and a knob list that cannot fork
again.
"""

import dataclasses
import inspect
import io
import sys
from contextlib import contextmanager

import pytest

from repro.engine.database import Database
from repro.engine.options import StatementOptions
from repro.errors import TranslationError
from repro.esql import fingerprint as fingerprint_mod
from repro.esql import parser as parser_mod
from repro.esql.fingerprint import fingerprint_source
from repro.server import Server, Session
from repro.server.locks import ConcurrencyGuard

SETUP = """
TABLE SALE (Shop : NUMERIC, Amount : NUMERIC);
CREATE VIEW BIG (Shop, Amount) AS
    SELECT Shop, Amount FROM SALE WHERE Amount > 10;
CREATE VIEW HUGE (Shop, Amount) AS
    SELECT Shop, Amount FROM BIG WHERE Amount > 20;
INSERT INTO SALE VALUES (2, 25), (2, 40), (1, 5), (1, 15);
"""
# through the stacked view: fires search_merge twice; its rows are
# scanned first, so a one-row budget truncates to exactly (25,)
QUERY = "SELECT Amount FROM HUGE WHERE Shop = 2"
ROWS = [(25,), (40,)]
# sys.statements column positions
CALLS, NROWS, FIRINGS, TRUNCATED = 2, 3, 10, 14


def _database(**flags):
    db = Database(**flags)
    db.execute(SETUP)
    return db


class _Env:
    """One database behind one server (optionally with a pool)."""

    def __init__(self, workers=0):
        self.db = _database()
        self.server = Server(self.db, workers=workers)
        if workers:
            assert self.server.pool.wait_ready(timeout_s=60.0, workers=1)

    def session(self, options):
        return self.server.open_session(
            settings=dataclasses.replace(options)
        )

    def statement(self):
        fp = fingerprint_source(QUERY).fingerprint
        for row in self.db.workload.rows():
            if row[0] == fp:
                return row
        return (fp, "") + (0,) * 14


@pytest.fixture(scope="module")
def served():
    env = _Env()
    yield env
    env.server.close()


@pytest.fixture(scope="module")
def pooled():
    env = _Env(workers=1)
    yield env
    env.server.close()


def _pooled_read(env, options):
    before = env.server.pool.dispatched
    rows = env.server.query(QUERY, session=env.session(options).id).rows
    assert env.server.pool.dispatched == before + 1  # really went out
    return rows


# surface name -> (fixture, run(env, options) -> rows or None)
SURFACES = {
    "db.query": ("served", lambda env, o:
                 env.db.query(QUERY, options=o).rows),
    "db.execute": ("served", lambda env, o:
                   env.db.execute(QUERY, options=o)[0].rows),
    "Session.query": ("served", lambda env, o:
                      Session("direct", env.db, o).query(QUERY).rows),
    "Session.execute": ("served", lambda env, o:
                        Session("direct", env.db, o)
                        .execute(QUERY)[0].rows),
    # a query *inside* a script, after a write that cannot match it
    "Session.execute script": (
        "served", lambda env, o: Session("direct", env.db, o).execute(
            "INSERT INTO SALE VALUES (9, 1); " + QUERY)[0].rows),
    "Server.query": ("served", lambda env, o: env.server.query(
        QUERY, session=env.session(o).id).rows),
    "Server.execute": ("served", lambda env, o: env.server.execute(
        QUERY, session=env.session(o).id)[0].rows),
    "ServingClient.query": ("served", lambda env, o: env.server.client(
        session=env.session(o).id).query(QUERY).rows),
    "pooled read": ("pooled", _pooled_read),
    # the report carries no rows; sys.statements.Rows speaks for it
    "explain_json": ("served", lambda env, o: env.db.explain_json(
        QUERY, execute=True, options=o) and None),
}


@pytest.mark.parametrize("surface", sorted(SURFACES))
class TestSurfaceParity:
    def _run(self, request, surface, options):
        fixture, run = SURFACES[surface]
        env = request.getfixturevalue(fixture)
        before, plans = env.statement(), env.db.plan_log.recorded
        rows = run(env, options)
        after = env.statement()
        delta = {"calls": after[CALLS] - before[CALLS],
                 "rows": after[NROWS] - before[NROWS],
                 "firings": after[FIRINGS] - before[FIRINGS],
                 "truncated": after[TRUNCATED] - before[TRUNCATED],
                 "plans": env.db.plan_log.recorded - plans}
        return rows, delta

    def test_same_rows_one_call(self, request, surface):
        rows, delta = self._run(request, surface, StatementOptions())
        assert rows is None or sorted(rows) == ROWS
        assert delta == {"calls": 1, "rows": 2, "firings": delta["firings"],
                         "truncated": 0, "plans": 0}
        assert delta["firings"] >= 2  # search_merge through both views

    def test_rewrite_off_fires_nothing(self, request, surface):
        rows, delta = self._run(request, surface,
                                StatementOptions(rewrite=False))
        assert rows is None or sorted(rows) == ROWS
        assert (delta["calls"], delta["firings"]) == (1, 0)

    def test_row_budget_degrades_to_one_row(self, request, surface):
        rows, delta = self._run(
            request, surface, StatementOptions(row_budget=1, degrade=True)
        )
        assert rows is None or rows == ROWS[:1]
        assert (delta["calls"], delta["rows"], delta["truncated"]) \
            == (1, 1, 1)

    def test_analyze_logs_one_plan(self, request, surface):
        rows, delta = self._run(request, surface,
                                StatementOptions(analyze=True))
        assert rows is None or sorted(rows) == ROWS
        assert (delta["calls"], delta["plans"]) == (1, 1)


# -- query-only entry points refuse writes before anything executes -----------

WRITES = [
    "INSERT INTO SALE VALUES (7, 70)",
    "UPDATE SALE SET Amount = 0 WHERE Shop = 1",
    "DELETE FROM SALE WHERE Shop = 1",
    "TABLE OTHER (A : NUMERIC)",
    "DROP VIEW HUGE",
]
QUERY_ONLY = {
    "query": lambda db, server, text: db.query(text),
    "optimize": lambda db, server, text: db.optimize(text),
    "explain": lambda db, server, text: db.explain(text),
    "explain_json": lambda db, server, text:
        db.explain_json(text, execute=True),
    "query_with_stats": lambda db, server, text:
        db.query_with_stats(text),
    "_translate_single": lambda db, server, text:
        db._translate_single(text),
    "Server.query": lambda db, server, text: server.query(text),
}


def _wal_bytes(db):
    with open(db.durability.wal.path, "rb") as handle:
        return handle.read()


class TestQueryOnlyRefusal:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_writes_are_refused_untouched(self, tmp_path, workers):
        path = str(tmp_path / "db")
        db = Database(path=path)
        db.execute(SETUP)
        server = Server(db, workers=workers)
        hooked = []
        db.commit_hooks.append(hooked.append)
        try:
            if workers:
                assert server.pool.wait_ready(timeout_s=60.0, workers=1)
            rows = sorted(db.query("SELECT * FROM SALE").rows)
            before = (list(db._ddl_history), db.guard.version,
                      _wal_bytes(db))
            for text in WRITES:
                for name, call in QUERY_ONLY.items():
                    with pytest.raises(TranslationError,
                                       match="not a query"):
                        call(db, server, text)
            assert (list(db._ddl_history), db.guard.version,
                    _wal_bytes(db)) == before
            assert hooked == []
            assert sorted(db.query("SELECT * FROM SALE").rows) == rows
            if workers:
                # no replica applied one either: a pooled read agrees
                dispatched = server.pool.dispatched
                assert sorted(server.query("SELECT * FROM SALE").rows) \
                    == rows
                assert server.pool.dispatched == dispatched + 1
        finally:
            server.close()
            db.close()
        reopened = Database(path=path)
        try:
            assert sorted(reopened.query("SELECT * FROM SALE").rows) \
                == rows
            assert reopened.catalog.is_view("HUGE")
        finally:
            reopened.close()

    def test_scripts_are_refused_too(self):
        db = _database()
        with pytest.raises(TranslationError, match="exactly one"):
            db.query(QUERY + "; " + QUERY)


# -- one parse per statement --------------------------------------------------

@contextmanager
def counting_parses():
    """Wrap ``parse_script_with_sources`` the way
    ``benchmarks/perf/probes.py`` does: in its own module and in every
    ``repro.*`` module that imported the name."""
    original = parser_mod.parse_script_with_sources
    calls = []

    def probe(source):
        calls.append(source)
        return original(source)

    holders = [module for module in list(sys.modules.values())
               if getattr(module, "__name__", "").startswith("repro.")
               and module.__dict__.get("parse_script_with_sources")
               is original]
    for module in holders:
        module.parse_script_with_sources = probe
    try:
        yield calls
    finally:
        for module in holders:
            module.parse_script_with_sources = original


class TestOneParsePerStatement:
    def _cold(self, n):
        """A text no memo has seen."""
        fingerprint_mod._memo.clear()
        return f"SELECT Amount FROM BIG WHERE Shop = {1000 + n}"

    def test_every_surface_parses_once(self, served):
        from repro.pool.worker import _Worker
        worker = _Worker(io.BytesIO(), io.BytesIO())
        worker.db = _database()
        db, server = served.db, served.server
        surfaces = [
            db.query,
            db.execute,
            Session("direct", db).query,
            server.query,
            server.execute,
            lambda text: worker._run_statement({"source": text}),
        ]
        for n, run in enumerate(surfaces):
            text = self._cold(n)
            with counting_parses() as calls:
                run(text)
            assert calls == [text], run

    def test_pooled_read_parses_once_then_classifies_from_the_memo(
            self, pooled):
        server = pooled.server
        for n, run in enumerate([server.query, server.execute]):
            text = self._cold(50 + n)
            dispatched = server.pool.dispatched
            with counting_parses() as calls:
                run(text)
                assert calls == [text], run  # this process; the worker: 1
                server.query(text)           # a repeated text: no parse
                assert calls == [text]
            assert server.pool.dispatched == dispatched + 2

    def test_cold_fingerprint_source_still_parses(self):
        text = self._cold(99)
        with counting_parses() as calls:
            fp = fingerprint_source(text)
        assert calls == [text]
        assert fp.template.startswith("SELECT AMOUNT FROM BIG")

    def test_raw_template_fallbacks(self):
        fingerprint_mod._memo.clear()
        assert fingerprint_source("SELEKT nonsense").template \
            == "!SELEKT nonsense"
        script = QUERY + ";  " + QUERY
        assert fingerprint_source(script).template \
            == "!" + " ".join(script.split())


# -- one guard entry per served statement -------------------------------------

class CountingGuard(ConcurrencyGuard):
    def __init__(self):
        super().__init__()
        self.reads = self.writes = 0

    def read(self):
        self.reads += 1
        return super().read()

    def write(self):
        self.writes += 1
        return super().write()


class TestGuardEnteredOnce:
    def test_one_read_per_query_one_write_per_write(self):
        db = _database()
        guard = db.enable_serving(CountingGuard())
        server = Server(db)
        try:
            assert server.guard is guard
            reads, writes = guard.reads, guard.writes
            assert sorted(server.query(QUERY).rows) == ROWS
            assert (guard.reads, guard.writes) == (reads + 1, writes)
            server.execute("INSERT INTO SALE VALUES (9, 1)")
            assert (guard.reads, guard.writes) == (reads + 1, writes + 1)
            server.explain_json(QUERY, execute=True)
            assert (guard.reads, guard.writes) == (reads + 2, writes + 1)
        finally:
            server.close()


# -- the knob list cannot fork again -------------------------------------------

# parameters of query()/execute() that are not per-statement knobs
NOT_KNOBS = {"self", "source", "script", "stats", "session", "obs",
             "options"}


class TestOneDeclaration:
    def test_keywords_are_fields_of_the_one_dataclass(self):
        fields = {f.name for f in dataclasses.fields(StatementOptions)}
        for method in (Database.query, Database.execute):
            knobs = set(inspect.signature(method).parameters) - NOT_KNOBS
            assert knobs and knobs <= fields, method

    def test_session_settings_is_the_same_class(self):
        from repro.server import SessionSettings
        assert SessionSettings is StatementOptions
        assert SessionSettings(row_budget=3).describe() == "rows=3"

    def test_pool_frame_ships_the_options_whole(self, pooled, monkeypatch):
        from repro.pool import supervisor
        frames = []
        original = supervisor.send_frame

        def recording(stream, message):
            frames.append(message)
            return original(stream, message)

        monkeypatch.setattr(supervisor, "send_frame", recording)
        options = StatementOptions(rewrite=False, row_budget=500)
        pooled.server.query(QUERY, session=pooled.session(options).id)
        (frame,) = [f for f in frames if f["type"] == "execute"]
        fields = {f.name for f in dataclasses.fields(StatementOptions)}
        assert set(frame["options"]) == fields
        assert frame["options"]["rewrite"] is False
        assert frame["options"]["row_budget"] == 500
        # the parent's defaults, resolved: nothing is left to the replica
        assert frame["options"]["checked"] is False
        # no knob rides the frame outside the one object
        assert not (fields & set(frame))
