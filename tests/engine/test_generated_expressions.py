"""Scalar expressions compiled to generated Python functions.

``Evaluator.compile_expr`` emits one function ``f(env, params)`` per
expression: a built-in comparison or arithmetic operator becomes the
Python operator behind an exact-type guard, everything else calls the
registry's impl.  These tests hold the generated code to the impls it
stands for: every operator over every pair of a value matrix, a
replaced operator, the code memo, the connectives' Booleans and the
errors of an attribute reference.
"""

import itertools

import pytest

from repro import Database, Extension
from repro.adt.registry import FunctionDef
from repro.adt.types import BOOLEAN, NUMERIC
from repro.adt.values import BagValue, ListValue, SetValue
from repro.engine.catalog import Catalog
from repro.engine.evaluate import Evaluator
from repro.engine.plans import PARAM
from repro.errors import EvaluationError
from repro.terms.term import AttrRef, Fun, mk_fun, num, string

OPERATORS = ("=", "<>", "<", ">", "<=", ">=", "+", "-", "*", "/")
VALUES = (1, 2, 1.5, 2.0, "a", "b", True, False, None, SetValue([1, 2]),
          BagValue([1, 1]), ListValue([2, 3]), SetValue([]))


def param(i: int):
    return Fun(PARAM, (num(i),))


def outcome(call):
    """(type, repr) of a value, or (exception type, message)."""
    try:
        value = call()
    except Exception as exc:  # the comparison is the point
        return "raises", type(exc), str(exc)
    return "value", type(value), repr(value)


@pytest.fixture(scope="module")
def catalog():
    return Catalog()


@pytest.mark.parametrize("name", OPERATORS)
def test_every_operator_matches_its_impl_on_every_pair(catalog, name):
    # Fun, not mk_fun: keep the operands in order for commutative '='
    run = Evaluator(catalog).compile_expr(Fun(name, (param(0), param(1))))
    impl = catalog.registry.lookup(name, 2).impl
    for a, b in itertools.product(VALUES, repeat=2):
        assert outcome(lambda: run((), (a, b))) == \
            outcome(lambda: impl([a, b], catalog)), (name, a, b)


def test_the_exact_type_fast_path_is_inlined(catalog):
    run = Evaluator(catalog).compile_expr(
        Fun(">", (AttrRef(1, 1), param(0))))
    assert " > " in run.__source__ and "type(" in run.__source__
    divide = Evaluator(catalog).compile_expr(Fun("/", (param(0), param(1))))
    assert "type(" not in divide.__source__


def test_texts_differing_in_constants_share_one_code_object(catalog):
    evaluator = Evaluator(catalog)
    runs = [evaluator.compile_expr(mk_fun("AND", [
        mk_fun(">", [AttrRef(1, 1), constant]),
        mk_fun("<>", [AttrRef(1, 2), string("x")])]))
        for constant in (num(5), num(7), num(2.5), string("q"))]
    assert len({run.__code__ for run in runs}) == 1
    assert [run(((6, "y"),), ()) for run in runs[:2]] == [True, False]


def test_a_deep_expression_spans_several_functions(catalog):
    expr = AttrRef(1, 1)
    for __ in range(150):
        expr = Fun("+", (expr, num(1)))
    run = Evaluator(catalog).compile_expr(expr)
    assert run.__source__.count("def ") > 1
    assert run(((1,),), ()) == 151
    with pytest.raises(EvaluationError,
                       match=r"#1\.1 exceeds the row width 0"):
        run(((),), ())


@pytest.mark.parametrize("name", ["AND", "OR", "NOT"])
def test_connectives_return_exactly_true_or_false(catalog, name):
    arity = 1 if name == "NOT" else 2
    run = Evaluator(catalog).compile_expr(
        Fun(name, tuple(param(i) for i in range(arity))))
    impl = catalog.registry.lookup(name, arity).impl
    operands = (1, 0, "a", "", SetValue([1]), SetValue([]), None, True)
    for values in itertools.product(operands, repeat=arity):
        got = run((), values)
        assert got is impl(list(values), catalog), (name, values)


class TestAttributeErrors:
    def test_a_reference_past_the_bound_relations(self, catalog):
        run = Evaluator(catalog).compile_expr(
            mk_fun(">", [AttrRef(2, 1), num(1)]))
        with pytest.raises(EvaluationError, match=r"^attribute reference "
                           r"#2\.1 exceeds the 1 bound relation\(s\)$"):
            run(((1,),), ())

    def test_a_reference_past_the_row_width(self, catalog):
        build = Evaluator(catalog)._row_builder([AttrRef(1, 1),
                                                 AttrRef(1, 3)])
        with pytest.raises(EvaluationError, match=r"^attribute reference "
                           r"#1\.3 exceeds the row width 2$"):
            build(((1, 2),), ())

    def test_an_impls_own_index_error_propagates(self):
        catalog = Catalog()

        def pick(args, ctx):
            raise IndexError("pick: no such element")
        catalog.registry.register(FunctionDef("PICK", pick, 1))
        run = Evaluator(catalog).compile_expr(
            mk_fun("PICK", [AttrRef(1, 1)]))
        with pytest.raises(IndexError, match="^pick: no such element$"):
            run(((1,),), ())


def _reversed(args, ctx):
    return args[0] < args[1]


def _minus(args, ctx):
    return args[0] - args[1]


class TestReplacedOperators:
    """An extension replacing ``>`` or ``+`` is what a plan runs next."""

    @pytest.fixture
    def db(self):
        d = Database()
        d.execute("TABLE T (A : NUMERIC); "
                  "INSERT INTO T VALUES (1), (2), (3)")
        return d

    @staticmethod
    def replace(db):
        db.install(Extension("odd")
                   .function(FunctionDef(">", _reversed, 2,
                                         lambda types, ts: BOOLEAN))
                   .function(FunctionDef("+", _minus, 2,
                                         lambda types, ts: NUMERIC)))

    def test_a_cached_query(self, db):
        query = "SELECT A + 10 FROM T WHERE A > 2"
        assert db.query(query).rows == db.query(query).rows == [(13,)]
        self.replace(db)
        assert sorted(db.query(query).rows) == [(-9,)]
        assert sorted(db.query(query).rows) == [(-9,)]

    def test_update_and_delete(self, db):
        self.replace(db)
        db.execute("UPDATE T SET A = A + 10 WHERE A > 2")
        assert sorted(db.query("SELECT A FROM T").rows) == [(-9,), (2,),
                                                             (3,)]
        db.execute("DELETE FROM T WHERE A > 2")
        assert sorted(db.query("SELECT A FROM T").rows) == [(2,), (3,)]
