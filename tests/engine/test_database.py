"""Database facade tests (execute / query / explain / extensions)."""

import pytest

from repro import Database, EvalStats
from repro.errors import ReproError, TranslationError


@pytest.fixture
def db():
    database = Database()
    database.execute("TABLE EDGE (Src : NUMERIC, Dst : NUMERIC)")
    database.execute("INSERT INTO EDGE VALUES (1, 2), (2, 3), (3, 4)")
    return database


class TestExecute:
    def test_script_returns_query_results(self, db):
        results = db.execute(
            "SELECT Dst FROM EDGE WHERE Src = 1; "
            "SELECT Src FROM EDGE WHERE Dst = 4"
        )
        assert [r.rows for r in results] == [[(2,)], [(3,)]]

    def test_ddl_returns_nothing(self, db):
        assert db.execute("TABLE T2 (A : INT)") == []

    def test_trailing_semicolon_ok(self, db):
        db.execute("TABLE T3 (A : INT);")
        assert db.catalog.is_table("T3")


class TestQuery:
    def test_simple(self, db):
        assert db.query("SELECT Dst FROM EDGE WHERE Src = 2").rows == [(3,)]

    def test_rewrite_toggle_same_answers(self, db):
        q = "SELECT Dst FROM EDGE WHERE Src = 2"
        assert db.query(q, rewrite=True).rows == \
            db.query(q, rewrite=False).rows

    def test_non_query_rejected(self, db):
        with pytest.raises(TranslationError):
            db.query("TABLE X (A : INT)")

    def test_multi_statement_rejected(self, db):
        with pytest.raises(TranslationError):
            db.query("SELECT Src FROM EDGE; SELECT Dst FROM EDGE")

    def test_query_with_stats(self, db):
        result, stats, optimized = db.query_with_stats(
            "SELECT Dst FROM EDGE WHERE Src = 1"
        )
        assert result.rows == [(2,)]
        assert stats.tuples_scanned > 0
        assert optimized.final is not None

    def test_schema_exposed(self, db):
        result = db.query("SELECT Dst AS Target FROM EDGE WHERE Src = 1")
        assert result.schema.names == ("Target",)


class TestExplain:
    def test_explain_contains_plans(self, db):
        text = db.explain("SELECT Dst FROM EDGE WHERE Src = 1")
        assert "plan before rewriting" in text
        assert "plan after rewriting" in text

    def test_explain_verbose_shows_terms(self, db):
        db.execute("""
        CREATE VIEW E2 (Src, Dst) AS
        SELECT E1.Src, E2.Dst FROM EDGE E1, EDGE E2 WHERE E1.Dst = E2.Src
        """)
        text = db.explain("SELECT Dst FROM E2 WHERE Src = 1", verbose=True)
        assert "search_merge" in text


class TestRecursion:
    def test_recursive_view_query(self, db):
        db.execute("""
        CREATE VIEW REACH (Src, Dst) AS
        ( SELECT Src, Dst FROM EDGE
          UNION
          SELECT R.Src, E.Dst FROM REACH R, EDGE E WHERE R.Dst = E.Src )
        """)
        rows = db.query("SELECT Dst FROM REACH WHERE Src = 1").rows
        assert sorted(rows) == [(2,), (3,), (4,)]

    def test_recursive_view_magic_matches_plain(self, db):
        db.execute("""
        CREATE VIEW REACH (Src, Dst) AS
        ( SELECT Src, Dst FROM EDGE
          UNION
          SELECT R.Src, E.Dst FROM REACH R, EDGE E WHERE R.Dst = E.Src )
        """)
        q = "SELECT Dst FROM REACH WHERE Src = 2"
        assert sorted(db.query(q, rewrite=True).rows) == \
            sorted(db.query(q, rewrite=False).rows)


class TestExtensionHooks:
    def test_add_integrity_constraint_regenerates(self, db):
        db.execute("TYPE Category ENUMERATION OF ('A', 'B')")
        db.execute("TABLE ITEM (Id : NUMERIC, Cat : Category)")
        db.add_integrity_constraint(
            "ic: F(x) / ISA(x, Category) "
            "--> F(x) AND MEMBER(x, MAKESET('A', 'B')) /"
        )
        opt = db.optimize("SELECT Id FROM ITEM WHERE Cat = 'Z'")
        from repro.terms.printer import term_to_str
        assert "EMPTY" in term_to_str(opt.final)

    def test_install_extension_with_function(self, db):
        from repro import Extension
        from repro.adt.registry import FunctionDef
        ext = Extension("geo").function(
            FunctionDef("DOUBLE", lambda a, c: a[0] * 2, 1)
        )
        db.install(ext)
        rows = db.query("SELECT DOUBLE(Dst) FROM EDGE WHERE Src = 1").rows
        assert rows == [(4,)]

    def test_install_extension_with_rule(self, db):
        from repro import Extension
        ext = Extension("noop").rule(
            "simplify", "plus_zero: x + 0 / --> x /"
        )
        db.install(ext)
        opt = db.optimize("SELECT Dst FROM EDGE WHERE Src + 0 = 1")
        from repro.terms.printer import term_to_str
        assert "+" not in term_to_str(opt.final)

    def test_semantic_limit_zero_disables_semantics(self):
        db = Database(semantic_limit=0)
        db.execute("TYPE Category ENUMERATION OF ('A', 'B')")
        db.execute("TABLE ITEM (Id : NUMERIC, Cat : Category)")
        db.add_integrity_constraint(
            "ic: F(x) / ISA(x, Category) "
            "--> F(x) AND MEMBER(x, MAKESET('A', 'B')) /"
        )
        opt = db.optimize("SELECT Id FROM ITEM WHERE Cat = 'Z'")
        from repro.terms.printer import term_to_str
        assert "false" not in term_to_str(opt.final)


class TestEngineOptions:
    def test_hash_join_database_same_answers(self):
        import random
        rng = random.Random(4)
        rows = [(rng.randint(1, 6), rng.randint(1, 6))
                for __ in range(25)]
        plain = Database(hash_joins=False)
        hashed = Database()
        assert hashed.hash_joins is True  # the default
        for d in (plain, hashed):
            d.execute("TABLE E (A : NUMERIC, B : NUMERIC)")
            d.execute("INSERT INTO E VALUES " + ", ".join(
                f"({a}, {b})" for a, b in rows
            ))
        q = "SELECT X.A, Y.B FROM E X, E Y WHERE X.B = Y.A AND X.A > 2"
        assert sorted(plain.query(q).rows) == sorted(hashed.query(q).rows)

    def test_naive_database_same_answers(self):
        for semi in (True, False):
            d = Database(semi_naive=semi)
            d.execute("TABLE E (A : NUMERIC, B : NUMERIC)")
            d.execute("INSERT INTO E VALUES (1, 2), (2, 3)")
            d.execute("""
            CREATE VIEW R (A, B) AS
            ( SELECT A, B FROM E
              UNION
              SELECT R.A, E.B FROM R, E WHERE R.B = E.A )
            """)
            rows = sorted(d.query("SELECT A, B FROM R").rows)
            assert rows == [(1, 2), (1, 3), (2, 3)]
