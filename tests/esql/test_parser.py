"""ESQL parser tests."""

import pytest

from repro.errors import ParseError
from repro.esql import ast
from repro.esql.parser import (parse_expression, parse_query, parse_script,
                               parse_script_with_sources, parse_statement)


class TestTypeDefs:
    def test_enumeration(self):
        stmt = parse_statement(
            "TYPE Category ENUMERATION OF ('Comedy', 'Western')"
        )
        assert isinstance(stmt, ast.EnumTypeDef)
        assert stmt.literals == ("Comedy", "Western")

    def test_tuple_type(self):
        stmt = parse_statement("TYPE Point TUPLE (ABS : REAL, ORD : REAL)")
        assert isinstance(stmt, ast.TupleTypeDef)
        assert not stmt.is_object
        assert stmt.fields[0][0] == "ABS"

    def test_object_tuple(self):
        stmt = parse_statement(
            "TYPE Person OBJECT TUPLE (Name : CHAR, "
            "Firstname : SET OF CHAR)"
        )
        assert stmt.is_object
        assert isinstance(stmt.fields[1][1], ast.CollectionOf)

    def test_subtype_with_function(self):
        stmt = parse_statement(
            "TYPE Actor SUBTYPE OF Person OBJECT TUPLE (Salary : NUMERIC)"
            " FUNCTION IncreaseSalary(This Actor, Val NUMERIC)"
        )
        assert stmt.supertype == "Person"
        assert stmt.functions == ("IncreaseSalary",)
        assert stmt.is_object

    def test_collection_type(self):
        stmt = parse_statement("TYPE Text LIST OF CHAR")
        assert isinstance(stmt, ast.CollTypeDef)
        assert stmt.kind == "LIST"

    def test_nested_collection_of_tuple(self):
        stmt = parse_statement(
            "TYPE Pairs LIST OF TUPLE (Pros : INT, Cons : INT)"
        )
        assert isinstance(stmt.element, ast.TupleOf)

    def test_subtype_requires_tuple_body(self):
        with pytest.raises(ParseError):
            parse_statement("TYPE T SUBTYPE OF U LIST OF CHAR")


class TestTableAndView:
    def test_table(self):
        stmt = parse_statement(
            "TABLE FILM (Numf : NUMERIC, Title : Text)"
        )
        assert isinstance(stmt, ast.TableDef)
        assert len(stmt.columns) == 2

    def test_create_table(self):
        stmt = parse_statement("CREATE TABLE T (A : INT)")
        assert isinstance(stmt, ast.TableDef)

    def test_view_with_columns(self):
        stmt = parse_statement(
            "CREATE VIEW V (A, B) AS SELECT X, Y FROM T"
        )
        assert isinstance(stmt, ast.ViewDef)
        assert stmt.columns == ("A", "B")

    def test_recursive_view_in_parens(self):
        stmt = parse_statement("""
        CREATE VIEW BT (R1, R2) AS
        ( SELECT R1, R2 FROM D
          UNION
          SELECT B1.R1, B2.R2 FROM BT B1, BT B2 WHERE B1.R2 = B2.R1 )
        """)
        assert isinstance(stmt.query, ast.UnionSelect)
        assert len(stmt.query.selects) == 2


class TestInsert:
    def test_plain_rows(self):
        stmt = parse_statement("INSERT INTO T VALUES (1, 'a'), (2, 'b')")
        assert isinstance(stmt, ast.InsertStmt)
        assert len(stmt.rows) == 2

    def test_collection_literals(self):
        stmt = parse_statement(
            "INSERT INTO T VALUES (LIST('Z','o'), SET('Adventure'))"
        )
        lst, st = stmt.rows[0]
        assert isinstance(lst, ast.CollectionLit) and lst.kind == "LIST"
        assert isinstance(st, ast.CollectionLit) and st.kind == "SET"

    def test_new_object(self):
        stmt = parse_statement(
            "INSERT INTO T VALUES (NEW Actor('Quinn', 50000))"
        )
        (obj,) = stmt.rows[0]
        assert isinstance(obj, ast.NewObject)
        assert obj.type_name == "Actor"

    def test_tuple_literal(self):
        stmt = parse_statement("INSERT INTO T VALUES (TUPLE(1, 2))")
        (tup,) = stmt.rows[0]
        assert isinstance(tup, ast.TupleLit)


class TestSelect:
    def test_basic(self):
        q = parse_query("SELECT A, B FROM T WHERE A = 1")
        assert len(q.items) == 2
        assert isinstance(q.where, ast.BinOp)

    def test_aliases(self):
        q = parse_query("SELECT A AS X FROM T U")
        assert q.items[0].alias == "X"
        assert q.from_items[0].alias == "U"

    def test_qualified_columns(self):
        q = parse_query("SELECT T.A FROM T WHERE T.A = 1")
        assert q.items[0].expr.qualifier == "T"

    def test_function_calls(self):
        q = parse_query(
            "SELECT Title FROM FILM "
            "WHERE MEMBER('Adventure', Categories) "
            "AND ALL(Salary(Actors) > 10000)"
        )
        conj = q.where
        assert isinstance(conj, ast.AndExpr)
        member, quant = conj.operands
        assert isinstance(member, ast.FnCall)
        assert quant.name == "ALL"

    def test_group_by(self):
        q = parse_query(
            "SELECT Title, MakeSet(Refactor) FROM FILM, APPEARS_IN "
            "WHERE FILM.Numf = APPEARS_IN.Numf GROUP BY Title"
        )
        assert len(q.group_by) == 1
        assert q.group_by[0].name == "Title"

    def test_union(self):
        q = parse_query("SELECT A FROM T UNION SELECT B FROM U")
        assert isinstance(q, ast.UnionSelect)

    def test_distinct_accepted(self):
        q = parse_query("SELECT DISTINCT A FROM T")
        assert len(q.items) == 1

    def test_operator_precedence(self):
        e = parse_expression("a + b * c = d OR NOT e > f")
        assert isinstance(e, ast.OrExpr)

    def test_negative_number(self):
        e = parse_expression("-5")
        assert isinstance(e, ast.NumberLit) and e.value == -5

    def test_unary_minus_expression(self):
        e = parse_expression("-x")
        assert isinstance(e, ast.BinOp) and e.op == "-"

    def test_parenthesised_condition(self):
        e = parse_expression("(a = 1 OR b = 2) AND c = 3")
        assert isinstance(e, ast.AndExpr)


class TestScripts:
    def test_multiple_statements(self):
        stmts = parse_script(
            "TABLE T (A : INT); INSERT INTO T VALUES (1); "
            "SELECT A FROM T"
        )
        assert len(stmts) == 3

    def test_trailing_semicolon(self):
        assert len(parse_script("TABLE T (A : INT);")) == 1

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_script("SELECT A FROM T garbage !")

    def test_unknown_statement(self):
        with pytest.raises(ParseError):
            parse_statement("DANCE NOW")

    def test_create_requires_table_or_view(self):
        with pytest.raises(ParseError):
            parse_statement("CREATE INDEX I ON T")


class TestStatementSources:
    """Each statement's text, as the write-ahead log records it, is the
    source between its first token and the ``;`` or end after it."""

    def texts(self, source):
        return [text for __, text in parse_script_with_sources(source)]

    def test_multi_line_string(self):
        assert self.texts("INSERT INTO T VALUES ('a\nb');\n  SELECT A\n"
                          "FROM T") == ["INSERT INTO T VALUES ('a\nb')",
                                        "SELECT A\nFROM T"]

    def test_semicolon_inside_a_string(self):
        assert self.texts("INSERT INTO T VALUES ('x;y'); DELETE FROM T") \
            == ["INSERT INTO T VALUES ('x;y')", "DELETE FROM T"]

    def test_comment_between_statements(self):
        assert self.texts("TABLE T (A : INT); -- load it\n"
                          "INSERT INTO T VALUES (1) -- one row") == [
            "TABLE T (A : INT)", "INSERT INTO T VALUES (1) -- one row"]
