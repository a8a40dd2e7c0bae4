"""ROADMAP 0b: deep input fails typed, flat input runs.

Nesting is bounded where it enters -- the expression parser
(``MAX_NESTING_DEPTH``) and view definition (``MAX_VIEW_DEPTH``) -- so
neither a 1 kB statement nor a tower of views can surface as the
interpreter's ``RecursionError``; every surface (library call, served
session, pool worker) hands back the same typed ``NestingTooDeep``.
"""

import pytest

from repro import Database
from repro.errors import NestingTooDeep, ReproError, error_payload
from repro.esql.parser import MAX_NESTING_DEPTH, parse_statement
from repro.esql.translate import MAX_VIEW_DEPTH
from repro.pool import PoolConfig
from repro.server import Server

DEEP_PARENS = ("SELECT A FROM T WHERE " + "(" * 200 + "A = 1" + ")" * 200)
ADMITTED_VIEWS = 150


def small_db() -> Database:
    db = Database()
    db.execute("TABLE T (A : NUMERIC); INSERT INTO T VALUES (1), (2)")
    return db


def stack_views(execute, count: int) -> str:
    """``count`` views, each reading the one below; the top's name."""
    below = "T"
    for level in range(count):
        execute(f"CREATE VIEW W{level} (A) AS "
                f"SELECT A FROM {below} WHERE A > {-(level % 3)}")
        below = f"W{level}"
    return below


class TestParserBound:
    @pytest.mark.parametrize("source", [
        DEEP_PARENS,
        "SELECT A FROM T WHERE " + "NOT " * 200 + "A = 1",
        "SELECT A FROM T WHERE A = " + "- " * 200 + "1",
        "SELECT A FROM T WHERE A = " + "ABS(" * 200 + "1" + ")" * 200,
        "(" * 200 + "SELECT A FROM T" + ")" * 200,
        "TABLE D (A : " + "SET OF " * 200 + "INT)",
        "TYPE P " + "TUPLE (F : " * 200 + "INT" + ")" * 200,
    ], ids=["parens", "not", "minus", "calls", "selects", "collections",
            "tuples"])
    def test_every_recursive_production_is_bounded(self, source):
        with pytest.raises(NestingTooDeep) as caught:
            parse_statement(source)
        error = caught.value
        assert isinstance(error, ReproError)
        assert error.limit == MAX_NESTING_DEPTH == 64
        assert error.resource == "expression"
        assert str(MAX_NESTING_DEPTH) in str(error)
        assert error.line == 1 and error.column > MAX_NESTING_DEPTH

    def test_the_bound_is_exact(self):
        db = small_db()
        fits = MAX_NESTING_DEPTH - 1  # the WHERE itself is level one
        query = "SELECT A FROM T WHERE " + "(" * fits + "A = 1" + ")" * fits
        assert db.query(query).rows == [(1,)]
        with pytest.raises(NestingTooDeep):
            db.query(query.replace("A = 1", "(A = 1)"))

    def test_flat_input_is_not_nesting(self):
        db = small_db()
        chain = " AND ".join(f"A <> {k}" for k in range(2, 3002))
        assert db.query(f"SELECT A FROM T WHERE {chain}").rows == [(1,)]
        many = ", ".join(str(k) for k in range(3000))
        assert len(db.query(f"SELECT A FROM T WHERE A IN ({many})").rows) == 2


class TestViewBound:
    def test_admitted_tower_runs_every_way(self):
        db = small_db()
        top = stack_views(db.execute, ADMITTED_VIEWS)
        query = f"SELECT A FROM {top} WHERE A = 2"
        assert db.query(query).rows == [(2,)]
        assert db.query(query, rewrite=False).rows == [(2,)]
        fired = db.optimize(query).rewrite_result.rules_fired()
        assert fired.count("search_merge") == ADMITTED_VIEWS

    def test_a_taller_tower_is_refused_where_it_is_defined(self):
        db = small_db()
        with pytest.raises(NestingTooDeep) as caught:
            stack_views(db.execute, 400)
        error = caught.value
        assert error.resource == "view" and error.limit == MAX_VIEW_DEPTH
        assert str(MAX_VIEW_DEPTH) in str(error)
        # the refused definition left nothing behind, the last admitted
        # view still answers
        admitted = sum(db.catalog.is_view(f"W{k}") for k in range(400))
        assert ADMITTED_VIEWS <= admitted < 160
        assert not db.catalog.is_view(f"W{admitted}")
        assert db.query(f"SELECT A FROM W{admitted - 1}").rows \
            == [(1,), (2,)]


class TestServedSurfaces:
    """A session and a pool worker get the typed payload, not an
    untyped failure."""

    def test_session(self):
        server = Server(small_db())
        try:
            session = server.open_session("deep")
            with pytest.raises(NestingTooDeep) as caught:
                server.query(DEEP_PARENS, session=session.id)
            payload = error_payload(caught.value)
            assert payload["error"] == "NestingTooDeep"
            assert payload["limit"] == MAX_NESTING_DEPTH
            with pytest.raises(NestingTooDeep) as caught:
                stack_views(
                    lambda sql: server.execute(sql, session=session.id),
                    400,
                )
            assert error_payload(caught.value)["limit"] == MAX_VIEW_DEPTH
            # the session is still good for the next statement
            assert server.query("SELECT A FROM W149 WHERE A = 2",
                                session=session.id).rows == [(2,)]
        finally:
            server.close()

    def test_pool_worker(self):
        db = small_db()
        top = stack_views(db.execute, ADMITTED_VIEWS)
        server = Server(db)
        try:
            pool = server.enable_pool(1, config=PoolConfig(
                workers=1, monitor_interval_s=0.02,
            ))
            assert pool.wait_ready(timeout_s=60.0, workers=1)
            # the worker parses for itself: its typed error crosses
            # the process boundary as a payload and is rebuilt here
            with pytest.raises(NestingTooDeep) as caught:
                pool.submit(DEEP_PARENS)
            assert caught.value.limit == MAX_NESTING_DEPTH
            assert caught.value.resource == "expression"
            # a replica booted from the 150-view catalog answers a
            # read through the whole tower, and so does the session
            assert pool.submit(f"SELECT A FROM {top} WHERE A = 2").rows \
                == [(2,)]
            with pytest.raises(NestingTooDeep):
                server.query(DEEP_PARENS)
            assert server.query(f"SELECT A FROM {top}").rows \
                == [(1,), (2,)]
            assert pool.summary()["crashes"] == 0
        finally:
            server.close()
