"""The optional anti-pattern block: every rule family fires, answers
stay right, and the firings show up in explain provenance."""

import pytest

from repro.engine.database import Database
from repro.terms.parser import parse_term
from repro.terms.printer import term_to_str
from repro.terms.term import term_size

SETUP = """
TABLE K (A : INT, B : INT, PRIMARY KEY (A));
INSERT INTO K VALUES (1, 10);
INSERT INTO K VALUES (2, 20);
INSERT INTO K VALUES (3, 30);
TABLE U (F : INT);
INSERT INTO U VALUES (5);
INSERT INTO U VALUES (5);
INSERT INTO U VALUES (7)
"""


@pytest.fixture
def db():
    database = Database(antipattern=True)
    database.execute(SETUP)
    yield database
    database.close()


def fired(db, sql):
    return db.optimize(sql).rewrite_result.rules_fired()


class TestRuleFamiliesFire:
    def test_or_chain_becomes_in(self, db):
        sql = "SELECT A FROM K WHERE A = 1 OR A = 2 OR A = 3"
        rules = fired(db, sql)
        assert "ap_or_to_in" in rules
        assert "ap_in_extend" in rules
        assert sorted(db.query(sql).rows) == [(1,), (2,), (3,)]

    def test_double_negation_folds(self, db):
        sql = "SELECT A FROM K WHERE NOT (NOT (A > 1))"
        assert "ap_not_not" in fired(db, sql)
        assert sorted(db.query(sql).rows) == [(2,), (3,)]

    def test_negated_comparison_folds(self, db):
        sql = "SELECT A FROM K WHERE NOT (A > 1)"
        assert "ap_not_gt" in fired(db, sql)
        assert db.query(sql).rows == [(1,)]

    def test_trivial_arithmetic_folds(self, db):
        sql = "SELECT A FROM K WHERE A * 1 > 1 + 0"
        rules = fired(db, sql)
        assert "ap_times_one_r" in rules
        assert "ap_plus_zero_r" in rules
        assert sorted(db.query(sql).rows) == [(2,), (3,)]

    def test_subsumed_bounds_collapse(self, db):
        sql = "SELECT A FROM K WHERE A > 1 OR A >= 1"
        assert "ap_gt_ge_or" in fired(db, sql)
        assert sorted(db.query(sql).rows) == [(1,), (2,), (3,)]

    def test_distinct_over_key_drops(self, db):
        sql = "SELECT DISTINCT A, B FROM K"
        assert "ap_distinct_key" in fired(db, sql)
        assert sorted(db.query(sql).rows) == [(1, 10), (2, 20), (3, 30)]

    def test_distinct_without_key_survives(self, db):
        sql = "SELECT DISTINCT F FROM U"
        assert "ap_distinct_key" not in fired(db, sql)
        assert sorted(db.query(sql).rows) == [(5,), (7,)]


class TestEffectPerShape:
    """What the block buys per query shape on a 300-row keyed table:
    ``ap_*`` firings, plan nodes without and with it, rows answered --
    the same rows either way, which is the product."""

    SHAPES = {
        "SELECT Id FROM ITEM WHERE Id = 1 OR Id = 2 OR Id = 3 OR Id = 4":
            (3, 20, 14, 4),
        "SELECT DISTINCT Id, Price FROM ITEM": (1, 12, 11, 300),
        "SELECT Id FROM ITEM WHERE NOT (NOT (Price > 90))": (1, 10, 10, 27),
        "SELECT Id FROM ITEM WHERE Price * 1 > 90 + 0": (2, 12, 10, 27),
        "SELECT Id FROM ITEM WHERE Price > 90 OR Price >= 90":
            (1, 14, 10, 30),
    }

    @pytest.fixture(scope="class")
    def pair(self):
        setup = ("TABLE ITEM (Id : NUMERIC, Price : NUMERIC, "
                 "PRIMARY KEY (Id)); INSERT INTO ITEM VALUES "
                 + ", ".join(f"({i}, {(i * 37) % 100})"
                             for i in range(300)))
        plain, treated = Database(), Database(antipattern=True)
        plain.execute(setup)
        treated.execute(setup)
        yield plain, treated
        plain.close()
        treated.close()

    @pytest.mark.parametrize("sql", SHAPES)
    def test_shape(self, pair, sql):
        plain, treated = pair
        optimized = treated.optimize(sql)
        rows = treated.query(sql).rows
        assert sorted(rows) == sorted(plain.query(sql).rows)
        assert (
            sum(rule.startswith("ap_")
                for rule in optimized.rewrite_result.rules_fired()),
            term_size(plain.optimize(sql).final),
            term_size(optimized.final), len(rows),
        ) == self.SHAPES[sql]


class TestPlanLevelRules:
    def test_semijoin_sheds_right_distinct(self, db):
        result = db.optimizer.rewriter.rewrite(
            parse_term("SEMIJOIN(K, DISTINCT(U), #1.1 = #2.1)")
        )
        assert "ap_semijoin_distinct" in result.rules_fired()
        assert "DISTINCT" not in term_to_str(result.term)

    def test_singleton_in_list_becomes_equality(self, db):
        result = db.optimizer.rewriter.rewrite(
            parse_term("SEARCH(LIST(K), MEMBER(#1.1, MAKESET(2)), "
                       "LIST(#1.1))")
        )
        assert "ap_member_singleton" in result.rules_fired()


class TestInstallation:
    def test_block_is_optional(self):
        plain = Database()
        try:
            names = [b.name for b in plain.optimizer.rewriter.seq.blocks]
            assert "antipattern" not in names
        finally:
            plain.close()

    def test_block_sits_before_simplify(self, db):
        names = [b.name for b in db.optimizer.rewriter.seq.blocks]
        assert "antipattern" in names
        assert names.index("antipattern") < names.index("simplify")

    def test_explain_provenance_names_the_block(self, db):
        report = db.explain_json(
            "SELECT A FROM K WHERE NOT (NOT (A > 1))"
        )
        trace = report["rewrite"]["trace"]
        blocks = {entry["block"] for entry in trace}
        assert "antipattern" in blocks
        rules = {entry["rule"] for entry in trace
                 if entry["block"] == "antipattern"}
        assert "ap_not_not" in rules
        assert "antipattern" in report["rewrite"]["summary"]
