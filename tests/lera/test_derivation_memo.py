"""The derivation memo: each node remembers its schema or type.

``schema_of``, ``infer_type`` and ``typecheck`` (``repro.lera.schema``)
keep their last result on the interned node, keyed by the catalog's
plan version (object and value) and the scope by value, a schema's
tuple types compared with their fields.  These tests pin the two halves
of that contract: a repeated derivation under the same key derives
nothing again, and every change a derivation reads -- DDL, a view, a
function's type rule, another catalog, another scope -- is seen.
"""

import importlib
import sys
import threading
from dataclasses import replace

import pytest

from repro import Database, Extension
from repro.adt.types import BOOLEAN, CHAR, INT, NUMERIC
from repro.errors import SchemaError
from repro.lera import ops
from repro.lera import schema as derivation
from repro.lera.schema import Schema, infer_type, schema_of
from repro.lera.typecheck import typecheck
from repro.terms.parser import parse_term
from repro.terms.term import TRUE, AttrRef, mk_fun, sym


def search(relation: str, *positions: int):
    return ops.search([sym(relation)], TRUE,
                      [AttrRef(1, p) for p in positions])


def types(schema: Schema) -> list:
    return [dtype for __, dtype in schema]


@pytest.fixture
def db():
    database = Database()
    database.execute("TABLE T (A : NUMERIC, B : CHAR);"
                     "INSERT INTO T VALUES (1, 'x')")
    database.catalog.registry.define(
        "HALF", lambda args, ctx: args[0] / 2, 1,
        type_rule=lambda arg_types, ts: NUMERIC)
    return database


class TestInvalidation:
    def test_a_table_recreated_with_other_types(self, db):
        term = search("T", 1, 2)
        assert types(schema_of(term, db.catalog)) == [NUMERIC, CHAR]
        db.execute("DROP TABLE T")
        db.execute("TABLE T (A : CHAR, B : NUMERIC)")
        assert types(schema_of(term, db.catalog)) == [CHAR, NUMERIC]
        assert typecheck(term, db.catalog)[1] == schema_of(term, db.catalog)

    def test_a_view_redefined(self, db):
        db.execute("CREATE VIEW V (X) AS SELECT A FROM T")
        term = search("V", 1)
        assert types(typecheck(term, db.catalog)[1]) == [NUMERIC]
        db.execute("DROP VIEW V")
        db.execute("CREATE VIEW V (X) AS SELECT B FROM T")
        assert types(typecheck(term, db.catalog)[1]) == [CHAR]
        assert types(schema_of(term, db.catalog)) == [CHAR]

    def test_install_replacing_a_type_rule(self, db):
        expr = parse_term("HALF(#1.1)")
        assert infer_type(expr, [db.catalog.relation_schema("T")],
                          db.catalog) == NUMERIC
        fdef = db.catalog.registry.lookup("HALF", 1)
        db.install(Extension("chars").function(
            replace(fdef, type_rule=lambda arg_types, ts: CHAR)))
        assert infer_type(expr, [db.catalog.relation_schema("T")],
                          db.catalog) == CHAR

    def test_a_registry_replacement_outside_install(self, db):
        term = ops.search([sym("T")], TRUE, [parse_term("HALF(#1.1)")])
        assert types(typecheck(term, db.catalog)[1]) == [NUMERIC]
        registry = db.catalog.registry
        fdef = registry.lookup("HALF", 1)
        registry.register(replace(fdef, type_rule=lambda a, ts: BOOLEAN),
                          replace=True)
        assert types(typecheck(term, db.catalog)[1]) == [BOOLEAN]
        assert types(schema_of(term, db.catalog)) == [BOOLEAN]

    def test_a_failed_derivation_is_not_remembered(self, db):
        term = search("T", 3)
        for __ in range(2):
            with pytest.raises(SchemaError, match="out of range"):
                schema_of(term, db.catalog)
        db.execute("DROP TABLE T")
        db.execute("TABLE T (A : INT, B : INT, C : CHAR)")
        assert types(schema_of(term, db.catalog)) == [CHAR]


class TestScopes:
    def test_one_fix_body_under_two_environments(self, db):
        body = search("R", 1)
        narrow = Schema([("A", INT)])
        wide = Schema([("A", CHAR)])
        for __ in range(2):
            assert types(schema_of(body, db.catalog, {"R": narrow})) == [INT]
            assert types(schema_of(body, db.catalog, {"R": wide})) == [CHAR]
            assert types(typecheck(body, db.catalog, {"R": wide})[1]) \
                == [CHAR]
            assert types(typecheck(body, db.catalog, {"R": narrow})[1]) \
                == [INT]

    def test_one_expression_over_two_input_schemas(self, db):
        expr = parse_term("#1.1 + 1")
        ints, chars = Schema([("A", INT)]), Schema([("A", CHAR)])
        for __ in range(2):
            assert infer_type(expr, [ints], db.catalog) == NUMERIC
            assert infer_type(mk_fun("=", [AttrRef(1, 1), sym("x")]),
                              [chars], db.catalog) == BOOLEAN
            with pytest.raises(SchemaError):
                infer_type(expr, [], db.catalog)

    def test_two_databases_with_the_same_names_in_turns(self):
        first, second = Database(), Database()
        first.execute("TABLE T (A : NUMERIC)")
        second.execute("TABLE T (A : CHAR)")
        term = search("T", 1)
        for __ in range(3):
            assert types(schema_of(term, first.catalog)) == [NUMERIC]
            assert types(typecheck(term, second.catalog)[1]) == [CHAR]
            assert types(typecheck(term, first.catalog)[1]) == [NUMERIC]
            assert types(schema_of(term, second.catalog)) == [CHAR]
        first.execute("INSERT INTO T VALUES (4)")
        second.execute("INSERT INTO T VALUES ('d')")
        assert first.query("SELECT A FROM T").rows == [(4,)]
        assert second.query("SELECT A FROM T").rows == [("d",)]


class TestSameNamedTypes:
    """Types compare by name, and every anonymous tuple type is named
    ``$anon``: two schemas whose types differ only in their fields are
    still two scopes and two schemas."""

    def test_tables_and_views_with_other_anonymous_tuples(self):
        db = Database()
        db.execute("TABLE T1 (ADDR : TUPLE (CITY : CHAR));"
                   "INSERT INTO T1 VALUES (TUPLE('Paris'));"
                   "TABLE T2 (ADDR : TUPLE (ZIP : INT));"
                   "INSERT INTO T2 VALUES (TUPLE(75))")
        assert db.catalog.relation_schema("T1") != \
            db.catalog.relation_schema("T2")
        db.execute("CREATE VIEW V1 AS SELECT ADDR FROM T1")
        db.execute("CREATE VIEW V2 AS SELECT ADDR FROM T2")
        for __ in range(2):
            assert db.query("SELECT ZIP(ADDR) FROM V2").rows == [(75,)]
            assert db.query("SELECT CITY(ADDR) FROM V1").rows == \
                [("Paris",)]

    def test_one_expression_over_two_collections_of_tuples(self):
        db = Database()
        db.execute("TABLE S1 (S : SET OF TUPLE (CITY : CHAR));"
                   "INSERT INTO S1 VALUES (SET(TUPLE('Paris')));"
                   "TABLE S2 (S : SET OF TUPLE (ZIP : INT));"
                   "INSERT INTO S2 VALUES (SET(TUPLE(75)))")
        for __ in range(2):
            assert db.query("SELECT CITY(CHOICE(S)) FROM S1").rows == \
                [("Paris",)]
            assert db.query("SELECT ZIP(CHOICE(S)) FROM S2").rows == \
                [(75,)]

    @pytest.mark.parametrize("kind, first_row, second_row", [
        ("TUPLE", "TUPLE(1)", "TUPLE('y')"),
        ("OBJECT TUPLE", "NEW P(1)", "NEW P('y')"),
    ])
    def test_two_databases_with_one_type_name(self, kind, first_row,
                                              second_row):
        first, second = Database(), Database()
        first.execute(f"TYPE P {kind} (X : INT); TABLE T (C : P);"
                      f"INSERT INTO T VALUES ({first_row})")
        second.execute(f"TYPE P {kind} (Y : CHAR); TABLE T (C : P);"
                       f"INSERT INTO T VALUES ({second_row})")
        second.execute("CREATE VIEW W AS SELECT C FROM T")
        first.execute("CREATE VIEW W AS SELECT C FROM T")
        for __ in range(2):
            assert first.query("SELECT X(C) FROM W").rows == [(1,)]
            assert second.query("SELECT Y(C) FROM W").rows == [("y",)]


class TestThreads:
    def test_threads_sharing_nodes_across_two_catalogs(self):
        """Eight threads type one term under two catalogs that disagree
        on T's column type, racing on the node's one entry: each read
        answers for its own catalog."""
        first, second = Database(), Database()
        first.execute("TABLE T (A : NUMERIC)")
        second.execute("TABLE T (A : CHAR)")
        expected = {id(first.catalog): [NUMERIC], id(second.catalog): [CHAR]}
        term = ops.search([sym("T")], parse_term("#1.1 = #1.1"),
                          [AttrRef(1, 1)])
        wrong = []

        def work(catalogs):
            for __ in range(300):
                for catalog in catalogs:
                    got = types(typecheck(term, catalog)[1])
                    if got != expected[id(catalog)] or types(
                            schema_of(term, catalog)) != got:
                        wrong.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(pair,))
                       for pair in [(first.catalog, second.catalog),
                                    (second.catalog, first.catalog)] * 4]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestDerivedOnce:
    def test_a_repeated_schema_of_asks_no_operator_rule(self, db,
                                                        monkeypatch):
        asked = []
        real = derivation.operator_schema
        monkeypatch.setattr(
            derivation, "operator_schema",
            lambda term, *rest: asked.append(term) or real(term, *rest))
        inner = search("T", 2, 1)
        term = ops.search([inner, sym("T")], parse_term("#1.2 = #2.1"),
                          [AttrRef(1, 1), AttrRef(2, 2)])
        first = schema_of(term, db.catalog)
        assert sorted(map(id, asked)) == sorted([id(inner), id(term)])
        del asked[:]
        assert schema_of(term, db.catalog) is first
        assert schema_of(inner, db.catalog) is not None
        assert asked == []

    def test_a_repeated_infer_type_asks_no_type_rule(self, db):
        ruled = []

        def rule(arg_types, ts):
            ruled.append(tuple(arg_types))
            return INT
        db.catalog.registry.define("TWICE", lambda a, c: 2 * a[0], 1,
                                   type_rule=rule)
        expr = parse_term("TWICE(TWICE(#1.1)) + 1")
        inputs = [db.catalog.relation_schema("T")]
        assert infer_type(expr, inputs, db.catalog) == NUMERIC
        assert len(ruled) == 2
        for __ in range(3):
            assert infer_type(expr, inputs, db.catalog) == NUMERIC
            assert infer_type(expr.args[0], inputs, db.catalog) == INT
            typecheck(ops.search([sym("T")], TRUE, [expr]), db.catalog)
        assert len(ruled) == 2

    def test_a_checked_term_is_checked_again_by_lookup(self, db,
                                                       monkeypatch):
        term = ops.search([search("T", 1, 2)],
                          parse_term("#1.1 > 0 AND HALF(#1.1) < 9"),
                          [AttrRef(1, 2)])
        typed, schema = typecheck(term, db.catalog)
        checker = importlib.import_module("repro.lera.typecheck")
        walked = []
        real = checker.normal_form
        monkeypatch.setattr(
            checker, "normal_form",
            lambda expr, *rest: walked.append(expr) or real(expr, *rest))
        assert typecheck(typed, db.catalog) == (typed, schema)
        assert walked == []
        # a new operator walks its own expressions, not its input's
        top = ops.search([typed.args[0].args[0]], TRUE, [AttrRef(1, 1)])
        typecheck(top, db.catalog)
        assert walked == [TRUE, AttrRef(1, 1)]

    def test_typecheck_agrees_with_schema_of(self, db):
        db.execute("CREATE VIEW V (X, Y) AS SELECT A, B FROM T WHERE A > 0")
        for text in ("SELECT X, HALF(X) FROM V WHERE Y = 'x'",
                     "SELECT A + 1 FROM T UNION SELECT X FROM V",
                     "SELECT B FROM T WHERE A IN (1, 2)"):
            term = db.optimize(text, rewrite=False).original
            for __ in range(2):
                typed, schema = typecheck(term, db.catalog)
                assert schema == schema_of(typed, db.catalog), text
