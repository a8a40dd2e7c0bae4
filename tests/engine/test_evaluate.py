"""Evaluator tests, one group per LERA operator."""

import pytest

from repro.adt.types import CHAR, NUMERIC
from repro.adt.values import SetValue, TupleValue
from repro.engine.catalog import Catalog
from repro.engine.evaluate import Evaluator, evaluate
from repro.engine.stats import EvalStats
from repro.errors import EvaluationError
from repro.lera import ops
from repro.terms.parser import parse_term
from repro.terms.term import (AttrRef, FALSE, TRUE, mk_fun, num, string,
                              sym)


@pytest.fixture
def cat():
    c = Catalog()
    c.define_table("EDGE", [("Src", NUMERIC), ("Dst", NUMERIC)])
    c.insert_many("EDGE", [(1, 2), (2, 3), (3, 4), (2, 4)])
    c.define_table("NODE", [("Id", NUMERIC), ("Label", CHAR)])
    c.insert_many("NODE", [(1, "a"), (2, "b"), (3, "c"), (4, "d")])
    return c


class TestScan:
    def test_base_relation(self, cat):
        result = evaluate(sym("EDGE"), cat)
        assert len(result) == 4
        assert result.schema.names == ("Src", "Dst")

    def test_unknown_relation(self, cat):
        with pytest.raises(EvaluationError):
            evaluate(sym("NOPE"), cat)

    def test_as_dicts(self, cat):
        result = evaluate(sym("NODE"), cat)
        assert {"Id": 1, "Label": "a"} in result.as_dicts()


class TestOperatorTable:
    @pytest.mark.parametrize("name", ["REL", "DISPATCH", "REL_INNER",
                                      "EXPR", "EXISTENTIAL"])
    def test_an_operator_name_never_selects_evaluator_plumbing(self, cat,
                                                               name):
        """Dispatch used to be ``getattr(self, f"_eval_{name.lower()}")``:
        the first three recursed into the evaluator's own methods until a
        raw ``RecursionError``, the last two escaped as ``TypeError``."""
        with pytest.raises(EvaluationError,
                           match=f"cannot evaluate operator '{name}'"):
            evaluate(mk_fun(name, [sym("EDGE")]), cat)


class TestSearch:
    def test_selection(self, cat):
        t = ops.search([sym("EDGE")], parse_term("#1.1 = 2"),
                       [AttrRef(1, 2)])
        assert sorted(evaluate(t, cat).rows) == [(3,), (4,)]

    def test_join(self, cat):
        t = ops.search([sym("EDGE"), sym("NODE")],
                       parse_term("#1.2 = #2.1"),
                       [AttrRef(1, 1), AttrRef(2, 2)])
        rows = set(evaluate(t, cat).rows)
        assert (1, "b") in rows and (3, "d") in rows

    def test_constant_false_short_circuits(self, cat):
        stats = EvalStats()
        t = ops.search([sym("EDGE")], FALSE, [AttrRef(1, 1)])
        result = Evaluator(cat, stats=stats).evaluate(t)
        assert len(result) == 0
        assert stats.tuples_scanned == 0  # never touched the data

    def test_eager_conjunct_application(self, cat):
        """A conjunct on the first input prunes before the join loop."""
        stats = EvalStats()
        t = ops.search([sym("EDGE"), sym("NODE")],
                       parse_term("#1.1 = 99 AND #1.2 = #2.1"),
                       [AttrRef(1, 1)])
        Evaluator(cat, stats=stats).evaluate(t)
        assert stats.join_pairs == 0  # nothing survived level 1

    def test_function_call_in_qual(self, cat):
        t = ops.search([sym("NODE")],
                       parse_term("MEMBER(#1.2, MAKESET('a', 'c'))"),
                       [AttrRef(1, 1)])
        assert sorted(evaluate(t, cat).rows) == [(1,), (3,)]

    def test_expression_in_projection(self, cat):
        t = ops.search([sym("EDGE")], TRUE,
                       [parse_term("#1.1 + #1.2")])
        assert (3,) in evaluate(t, cat).rows

    def test_qual_referencing_missing_input(self, cat):
        t = ops.search([sym("EDGE")], parse_term("#3.1 = 1"),
                       [AttrRef(1, 1)])
        with pytest.raises(EvaluationError):
            evaluate(t, cat)


class TestSimpleOperators:
    def test_filter(self, cat):
        t = ops.filter_(sym("EDGE"), parse_term("#1.2 > 3"))
        assert sorted(evaluate(t, cat).rows) == [(2, 4), (3, 4)]

    def test_projection(self, cat):
        t = ops.projection(sym("EDGE"), [AttrRef(1, 1)])
        assert len(evaluate(t, cat)) == 4  # bag semantics keep dupes

    def test_join_operator_concatenates(self, cat):
        t = ops.join([sym("EDGE"), sym("NODE")],
                     parse_term("#1.2 = #2.1"))
        rows = evaluate(t, cat).rows
        assert all(len(r) == 4 for r in rows)

    def test_union_set_semantics(self, cat):
        t = ops.union([sym("EDGE"), sym("EDGE")])
        assert len(evaluate(t, cat)) == 4

    def test_intersection(self, cat):
        some = ops.filter_(sym("EDGE"), parse_term("#1.1 = 2"))
        t = ops.intersection([sym("EDGE"), some])
        assert sorted(evaluate(t, cat).rows) == [(2, 3), (2, 4)]

    def test_difference(self, cat):
        some = ops.filter_(sym("EDGE"), parse_term("#1.1 = 2"))
        t = ops.difference(sym("EDGE"), some)
        assert sorted(evaluate(t, cat).rows) == [(1, 2), (3, 4)]

    def test_values(self, cat):
        t = ops.values_rel([[num(1), string("x")], [num(2), string("y")]])
        assert evaluate(t, cat).rows == [(1, "x"), (2, "y")]


class TestNestUnnest:
    def test_nest_single_attr(self, cat):
        t = ops.nest(sym("EDGE"), [AttrRef(1, 2)], "Dsts", kind="SET")
        rows = dict(evaluate(t, cat).rows)
        assert rows[2] == SetValue([3, 4])

    def test_nest_bag_keeps_duplicates(self, cat):
        cat.insert("EDGE", (2, 3))
        t = ops.nest(sym("EDGE"), [AttrRef(1, 2)], "Dsts", kind="BAG")
        rows = dict(evaluate(t, cat).rows)
        assert len(rows[2]) == 3

    def test_nest_multi_attr_builds_tuples(self, cat):
        t = ops.nest(sym("NODE"), [AttrRef(1, 1), AttrRef(1, 2)],
                     "All", kind="BAG")
        result = evaluate(t, cat)
        (only_row,) = result.rows
        assert TupleValue({"Id": 1, "Label": "a"}) in only_row[0]

    def test_unnest_inverts_nest(self, cat):
        nested = ops.nest(sym("EDGE"), [AttrRef(1, 2)], "D", kind="SET")
        t = ops.unnest(nested, AttrRef(1, 2))
        assert sorted(evaluate(t, cat).rows) == sorted(
            set(cat.rows("EDGE"))
        )

    def test_unnest_non_collection(self, cat):
        t = ops.unnest(sym("EDGE"), AttrRef(1, 1))
        with pytest.raises(EvaluationError):
            evaluate(t, cat)


class TestExpressions:
    def test_arithmetic_and_comparison(self, cat):
        t = ops.search([sym("EDGE")],
                       parse_term("#1.1 * 2 = #1.2 + 0"), [AttrRef(1, 1)])
        assert sorted(evaluate(t, cat).rows) == [(1,), (2,)]

    def test_boolean_connectives_shortcircuit(self, cat):
        t = ops.search([sym("EDGE")],
                       parse_term("#1.1 = 1 OR #1.2 = 4"),
                       [AttrRef(1, 1), AttrRef(1, 2)])
        assert len(evaluate(t, cat)) == 3

    def test_not(self, cat):
        t = ops.search([sym("EDGE")], parse_term("NOT(#1.1 = 2)"),
                       [AttrRef(1, 1)])
        assert sorted(evaluate(t, cat).rows) == [(1,), (3,)]

    def test_bad_attref_in_row(self, cat):
        t = ops.search([sym("EDGE")], parse_term("#1.7 = 1"),
                       [AttrRef(1, 1)])
        with pytest.raises(EvaluationError):
            evaluate(t, cat)


class TestStats:
    def test_scan_counts(self, cat):
        stats = EvalStats()
        Evaluator(cat, stats=stats).evaluate(sym("EDGE"))
        assert stats.tuples_scanned == 4

    def test_join_pairs_counted(self, cat):
        stats = EvalStats()
        t = ops.search([sym("EDGE"), sym("NODE")], TRUE,
                       [AttrRef(1, 1)])
        Evaluator(cat, stats=stats).evaluate(t)
        assert stats.join_pairs == 16

    def test_snapshot_and_merge(self, cat):
        a, b = EvalStats(), EvalStats()
        Evaluator(cat, stats=a).evaluate(sym("EDGE"))
        Evaluator(cat, stats=b).evaluate(sym("EDGE"))
        a.merge(b)
        assert a.snapshot()["tuples_scanned"] == 8
        assert a.total_work == 8
        a.reset()
        assert a.tuples_scanned == 0


class TestCaching:
    def test_identical_subtrees_computed_once(self, cat):
        stats = EvalStats()
        sub = ops.search([sym("EDGE"), sym("NODE")],
                         parse_term("#1.2 = #2.1"),
                         [AttrRef(1, 1), AttrRef(2, 2)])
        t = ops.union([
            ops.search([sub], parse_term("#1.1 = 1"), [AttrRef(1, 1)]),
            ops.search([sub], parse_term("#1.1 = 2"), [AttrRef(1, 1)]),
        ])
        Evaluator(cat, stats=stats, hash_joins=False).evaluate(t)
        # the inner join scans EDGE exactly once thanks to the cache
        assert stats.join_pairs == 16


class TestHashJoins:
    """The hash probe is the default; ``hash_joins=False`` is the
    nested loop it must agree with."""

    def test_same_answers(self, cat):
        t = ops.search([sym("EDGE"), sym("NODE")],
                       parse_term("#1.2 = #2.1"),
                       [AttrRef(1, 1), AttrRef(2, 2)])
        nl = evaluate(t, cat, hash_joins=False)
        hj = evaluate(t, cat)
        assert sorted(nl.rows) == sorted(hj.rows)

    def test_fewer_probe_pairs(self, cat):
        stats_nl, stats_hj = EvalStats(), EvalStats()
        t = ops.search([sym("EDGE"), sym("NODE")],
                       parse_term("#1.2 = #2.1"),
                       [AttrRef(1, 1)])
        Evaluator(cat, stats=stats_nl, hash_joins=False).evaluate(t)
        Evaluator(cat, stats=stats_hj).evaluate(t)
        assert stats_hj.join_pairs < stats_nl.join_pairs

    def test_non_equi_join_falls_back(self, cat):
        t = ops.search([sym("EDGE"), sym("NODE")],
                       parse_term("#1.2 > #2.1"),
                       [AttrRef(1, 1), AttrRef(2, 1)])
        nl = evaluate(t, cat, hash_joins=False)
        hj = evaluate(t, cat)
        assert sorted(nl.rows) == sorted(hj.rows)

    def test_three_way_hash_chain(self, cat):
        t = ops.search(
            [sym("EDGE"), sym("NODE"), sym("NODE")],
            parse_term("#1.1 = #2.1 AND #1.2 = #3.1"),
            [AttrRef(2, 2), AttrRef(3, 2)],
        )
        nl = evaluate(t, cat, hash_joins=False)
        hj = evaluate(t, cat)
        assert sorted(nl.rows) == sorted(hj.rows)


    @pytest.mark.parametrize("from_list", ["A, B", "B, A"])
    def test_equality_over_a_collection_column_declines_the_probe(
            self, from_list):
        """``=`` broadcasts over a collection operand (SET(1, 2) = 1
        is SET(true, false), non-empty, so the pair qualifies); a dict
        probe compares with Python equality and found no pair.  The
        probe declines whichever side holds the collection."""
        from repro import Database
        answers = []
        for hash_joins in (False, True):
            db = Database(hash_joins=hash_joins)
            db.execute("""
                TABLE A (K : NUMERIC, S : SET OF NUMERIC);
                TABLE B (K : NUMERIC, V : NUMERIC);
                INSERT INTO A VALUES (1, SET(1, 2)), (2, SET(3));
                INSERT INTO B VALUES (1, 1), (2, 5);
            """)
            answers.append(sorted(db.query(
                f"SELECT A.K, B.K FROM {from_list} WHERE A.S = B.V").rows))
        assert answers[0] == answers[1] == [(1, 1), (1, 2), (2, 1), (2, 2)]


class TestSchemaHandedOver:
    """The evaluator uses the schema it is handed and derives one only
    where something reads it."""

    @pytest.fixture
    def counted(self, monkeypatch):
        import importlib
        module = importlib.import_module("repro.engine.evaluate")
        asked = []
        real = module.schema_of
        monkeypatch.setattr(
            module, "schema_of",
            lambda term, *rest: asked.append(term) or real(term, *rest))
        return asked

    REACH = ops.fix("R", ops.union([
        sym("EDGE"),
        ops.search([sym("R"), sym("EDGE")], parse_term("#1.2 = #2.1"),
                   [AttrRef(1, 1), AttrRef(2, 2)]),
    ]))

    def test_a_fix_over_tables_derives_nothing_when_handed_a_schema(
            self, cat, counted):
        from repro.lera.schema import schema_of
        query = ops.search([self.REACH], parse_term("#1.1 = 1"),
                           [AttrRef(1, 2)])
        schema = schema_of(query, cat)
        result = Evaluator(cat).evaluate(query, schema)
        assert result.schema is schema
        assert sorted(result.rows) == [(2,), (3,), (4,)]
        assert counted == []
        # a standalone evaluation still derives the one it returns
        assert Evaluator(cat).evaluate(query).schema == schema
        assert counted == [query]

    def test_the_statement_path_hands_the_plans_schema_over(
            self, counted):
        from repro import Database
        db = Database()
        db.execute("""
            TABLE EDGE (Src : NUMERIC, Dst : NUMERIC);
            CREATE VIEW REACH (Src, Dst) AS
            ( SELECT Src, Dst FROM EDGE UNION
              SELECT R.Src, E.Dst FROM REACH R, EDGE E
              WHERE R.Dst = E.Src );
            INSERT INTO EDGE VALUES (1, 2), (2, 3);
        """)
        del counted[:]  # (a DML subquery evaluator would count too)
        result = db.query("SELECT Dst FROM REACH WHERE Src = 1")
        assert sorted(result.rows) == [(2,), (3,)]
        assert result.schema.names == ("Dst",)
        assert counted == []

    def test_a_nest_below_a_fix_still_finds_the_fixpoints_schema(
            self, cat, counted):
        """NEST names its grouped attributes from its input's schema,
        here the recursive relation's."""
        nested = ops.nest(sym("R"), [AttrRef(1, 2)], "Dsts")
        body = ops.union([sym("EDGE"), ops.search(
            [ops.unnest(nested, AttrRef(1, 2))], TRUE,
            [AttrRef(1, 1), AttrRef(1, 2)])])
        result = evaluate(ops.fix("R", body), cat)
        assert sorted(result.rows) == [(1, 2), (2, 3), (2, 4), (3, 4)]
        assert counted  # the FIX environment was derived for the NEST


class TestDistinct:
    def test_removes_duplicates(self, cat):
        t = ops.distinct(ops.projection(sym("EDGE"), [AttrRef(1, 1)]))
        rows = evaluate(t, cat).rows
        assert sorted(rows) == [(1,), (2,), (3,)]

    def test_schema_passthrough(self, cat):
        t = ops.distinct(sym("EDGE"))
        assert evaluate(t, cat).schema.names == ("Src", "Dst")
