"""Type checking / generic-function inference tests (section 3.3)."""

import pytest

from repro.adt.types import NUMERIC, CHAR, REAL
from repro.engine.catalog import Catalog
from repro.errors import TypeCheckError
from repro.lera import ops
from repro.lera.typecheck import typecheck
from repro.terms.parser import parse_term
from repro.terms.printer import term_to_str
from repro.terms.term import AttrRef, TRUE, mk_fun, sym


@pytest.fixture
def cat():
    c = Catalog()
    ts = c.type_system
    ts.define_tuple("Point", [("ABS", REAL), ("ORD", REAL)])
    ts.define_object("Person", [("Name", CHAR)])
    ts.define_object("Actor", [("Salary", NUMERIC)], supertype="Person")
    c.define_table("APPEARS_IN", [
        ("Numf", NUMERIC), ("Refactor", ts.lookup("Actor")),
    ])
    c.define_table("SHAPES", [("P", ts.lookup("Point"))])
    return c


class TestFieldAccessRewriting:
    def test_object_field_becomes_project_value(self, cat):
        """The paper's example: Salary(Refactor) > 1000 becomes
        PROJECT(VALUE(Refactor), Salary) > 1000."""
        t = ops.search([sym("APPEARS_IN")],
                       parse_term("SALARY(#1.2) > 1000"),
                       [AttrRef(1, 1)])
        checked, __ = typecheck(t, cat)
        qual = checked.args[1]
        assert "PROJECT(VALUE(#1.2), 'Salary')" in term_to_str(qual)

    def test_inherited_field(self, cat):
        t = ops.search([sym("APPEARS_IN")],
                       parse_term("NAME(#1.2) = 'Quinn'"),
                       [AttrRef(1, 1)])
        checked, __ = typecheck(t, cat)
        assert "PROJECT(VALUE(#1.2), 'Name')" in term_to_str(checked.args[1])

    def test_tuple_field_no_value_insertion(self, cat):
        t = ops.search([sym("SHAPES")], parse_term("ABS(#1.1) > 0"),
                       [AttrRef(1, 1)])
        checked, __ = typecheck(t, cat)
        rendered = term_to_str(checked.args[1])
        assert "PROJECT(#1.1, 'ABS')" in rendered
        assert "VALUE" not in rendered

    def test_declared_case_used(self, cat):
        t = ops.search([sym("APPEARS_IN")],
                       parse_term("salary(#1.2) > 1"), [AttrRef(1, 1)])
        checked, __ = typecheck(t, cat)
        assert "'Salary'" in term_to_str(checked.args[1])

    def test_projection_items_normalised(self, cat):
        t = ops.search([sym("APPEARS_IN")], TRUE,
                       [parse_term("SALARY(#1.2)")])
        checked, schema = typecheck(t, cat)
        assert schema.attr_type(1) == NUMERIC

    def test_unknown_function_rejected(self, cat):
        t = ops.search([sym("APPEARS_IN")],
                       parse_term("BOGUS(#1.1) = 1"), [AttrRef(1, 1)])
        with pytest.raises(TypeCheckError):
            typecheck(t, cat)

    def test_registered_function_kept(self, cat):
        t = ops.search([sym("APPEARS_IN")],
                       parse_term("MEMBER(#1.1, MAKESET(1, 2))"),
                       [AttrRef(1, 1)])
        checked, __ = typecheck(t, cat)
        assert "MEMBER" in term_to_str(checked.args[1])

    def test_bad_attref_surfaces(self, cat):
        t = ops.search([sym("APPEARS_IN")], parse_term("#1.9 = 1"),
                       [AttrRef(1, 1)])
        with pytest.raises(Exception):
            typecheck(t, cat)


class TestOperatorsWalked:
    def test_filter_qual_normalised(self, cat):
        t = ops.filter_(sym("APPEARS_IN"), parse_term("SALARY(#1.2) > 1"))
        checked, __ = typecheck(t, cat)
        assert "PROJECT" in term_to_str(checked.args[1])

    def test_union_branches_normalised(self, cat):
        branch = ops.search([sym("APPEARS_IN")],
                            parse_term("SALARY(#1.2) > 1"),
                            [AttrRef(1, 1)])
        t = ops.union([branch])
        checked, __ = typecheck(t, cat)
        assert "PROJECT" in term_to_str(checked)

    def test_fix_body_normalised(self, cat):
        body = ops.union([
            sym("APPEARS_IN"),
            ops.search([sym("R"), sym("APPEARS_IN")],
                       parse_term("#1.1 = #2.1 AND SALARY(#2.2) > 0"),
                       [AttrRef(1, 1), AttrRef(2, 2)]),
        ])
        t = ops.fix("R", body)
        checked, schema = typecheck(t, cat)
        assert "PROJECT" in term_to_str(checked)
        assert len(schema) == 2

    def test_nest_input_normalised(self, cat):
        inner = ops.search([sym("APPEARS_IN")], TRUE,
                           [AttrRef(1, 1), parse_term("SALARY(#1.2)")])
        t = ops.nest(inner, [AttrRef(1, 2)], "Salaries", kind="SET")
        checked, schema = typecheck(t, cat)
        assert schema.names[-1] == "Salaries"

    def test_values_passthrough(self, cat):
        from repro.lera.ops import values_rel
        from repro.terms.term import num
        t = values_rel([[num(1)]])
        checked, schema = typecheck(t, cat)
        assert checked == t
        assert len(schema) == 1

    def test_non_lera_term_rejected(self, cat):
        with pytest.raises(TypeCheckError):
            typecheck(parse_term("x"), cat)


class TestOneOperatorRule:
    """``schema_of`` and the type checker answer from the same
    per-operator rule, and the statement path hands that answer on."""

    def test_typecheck_and_schema_of_agree_on_generated_plans(self):
        from repro.lera.schema import schema_of
        from tests.generated_plans import generated_queries
        checked = 0
        for db, query in generated_queries():
            typed, schema = typecheck(db._translate_single(query),
                                      db.catalog)
            assert schema == schema_of(typed, db.catalog), query
            result, __, optimized = db.query_with_stats(query)
            assert result.schema == optimized.schema == \
                schema_of(optimized.final, db.catalog), query
            checked += 1
        assert checked >= 170

    @pytest.fixture
    def shapes(self, cat):
        ts = cat.type_system
        cat.define_table("T", [
            ("P", ts.define_tuple("Cell", [("Zed", REAL)])),
            ("S", ts.define_collection("Nums", "SET", NUMERIC)),
        ])
        return cat

    def test_union_names_come_from_the_first_operand_it_ends_up_with(
            self, shapes):
        """Typing turns ``ZED(#1.1)`` into a PROJECT, which sorts
        before ``SUM(...)`` where ``ZED`` sorted after it: the SET
        re-orders its members, and the schema follows the new order."""
        by_field = ops.search([sym("T")], parse_term("ZED(#1.1) > 0"),
                              [ops.as_item(AttrRef(1, 1), "FromField")])
        by_sum = ops.search([sym("T")], parse_term("SUM(#1.2) > 0"),
                            [ops.as_item(AttrRef(1, 1), "FromSum")])
        t = ops.union([by_field, by_sum])
        assert ops.relation_inputs(t) == (by_sum, by_field)
        typed, schema = typecheck(t, shapes)
        first = ops.relation_inputs(typed)[0]
        assert "PROJECT" in term_to_str(first)
        assert schema.names == ("FromField",)
        from repro.lera.schema import schema_of
        assert schema == schema_of(typed, shapes)

    def test_union_operands_that_type_alike_are_merged(self, shapes):
        spelled = ops.search([sym("T")],
                             parse_term("PROJECT(#1.1, 'Zed') > 0"),
                             [AttrRef(1, 1)])
        sugared = ops.search([sym("T")], parse_term("ZED(#1.1) > 0"),
                             [AttrRef(1, 1)])
        typed, schema = typecheck(ops.union([spelled, sugared]), shapes)
        assert len(ops.relation_inputs(typed)) == 1
        assert schema.names == ("P",)

    @pytest.mark.parametrize("build", [
        ops.difference, lambda a, b: ops.union([a, b]),
        lambda a, b: ops.intersection([a, b]),
    ])
    def test_width_mismatch_is_refused_before_anything_runs(self, cat,
                                                            build):
        from repro.errors import SchemaError
        narrow = ops.search([sym("SHAPES")], TRUE, [AttrRef(1, 1)])
        with pytest.raises(SchemaError, match="different widths"):
            typecheck(build(sym("APPEARS_IN"), narrow), cat)

    def test_schema_of_runs_once_per_relation_leaf_and_fix(self, cat,
                                                           monkeypatch):
        """The checker holds every operand schema: it asks
        ``schema_of`` for the leaves and for a FIX (whose schema needs
        its anchor branch), never for a term it has just built."""
        import importlib
        module = importlib.import_module("repro.lera.typecheck")
        asked = []
        real = module.schema_of
        monkeypatch.setattr(
            module, "schema_of",
            lambda term, *rest: asked.append(term) or real(term, *rest))
        step = ops.search([sym("R"), sym("APPEARS_IN")],
                          parse_term("#1.1 = #2.1 AND SALARY(#2.2) > 0"),
                          [AttrRef(1, 1), AttrRef(2, 2)])
        fix = ops.fix("R", ops.union([sym("APPEARS_IN"), step]))
        query = ops.search([fix], parse_term("#1.1 = 3"), [AttrRef(1, 2)])
        typecheck(query, cat)
        assert sorted(map(term_to_str, asked)) == sorted(
            ["APPEARS_IN", "APPEARS_IN", "R", term_to_str(fix)])
