"""Recursive-descent parser for the ESQL subset.

Accepts scripts: ``;``-separated statements (the trailing separator is
optional).  The grammar covers every statement in the paper's Figures
2-5 plus INSERT and DROP for data loading in tests and examples.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.esql import ast
from repro.esql.lexer import tokenize_sql
from repro.lexing import MAX_NESTING_DEPTH, Cursor

__all__ = ["parse_script", "parse_script_with_sources", "parse_statement",
           "parse_query", "parse_expression", "MAX_NESTING_DEPTH",
           "MAX_FOLDED_DEPTH"]

_COLLECTION_KINDS = ("SET", "BAG", "LIST", "ARRAY")

# How tall an arithmetic chain may fold (``A + 1 + ... + 1`` is as tall
# as it is long, though it does not nest), counted with the levels
# around it.  Every pass after the parser recurses once a level, so the
# bound sits well inside the interpreter's recursion limit, above the
# longest chain the passes have always answered.
MAX_FOLDED_DEPTH = 500

# an operator over two of these is one level tall, whatever the bound
_LEAVES = frozenset({ast.ColumnRef, ast.NumberLit, ast.StringLit,
                     ast.BoolLit})


class _Parser(Cursor):
    heights = None  # id(folded BinOp) -> its height, from the first fold

    def expect_ident(self) -> str:
        tok = self.peek()
        # collection keywords may double as identifiers in type context
        if tok.kind == "IDENT":
            return self.advance().text
        raise ParseError(
            f"expected an identifier, found {tok.kind} ({tok.text!r})",
            tok.line, tok.column,
        )

    def _relation_name(self) -> str:
        """A possibly dotted relation name (``sys.metrics``).

        Dots join namespace segments into one flat catalog name; the
        only namespace today is the reserved ``sys.`` introspection
        prefix, but the parser stays agnostic about that -- rejecting
        user DDL under ``sys.`` is the catalog's job, so the error can
        say *why* instead of being a syntax error.
        """
        parts = [self.expect_ident()]
        while self.accept("DOT"):
            parts.append(self.expect_ident())
        return ".".join(parts)

    # -- statements ---------------------------------------------------------
    def parse_statement(self) -> ast.Statement:
        tok = self.peek()
        if tok.kind == "TYPE":
            return self._type_def()
        if tok.kind == "TABLE":
            return self._table_def()
        if tok.kind == "CREATE":
            if self.peek(1).kind == "TABLE":
                return self._table_def()
            if self.peek(1).kind == "VIEW":
                return self._view_def()
            raise ParseError("expected TABLE or VIEW after CREATE",
                             tok.line, tok.column)
        if tok.kind == "INSERT":
            return self._insert()
        if tok.kind == "DROP":
            self.advance()
            kind_tok = self.peek()
            if kind_tok.kind not in ("TABLE", "VIEW"):
                raise ParseError("expected TABLE or VIEW after DROP",
                                 kind_tok.line, kind_tok.column)
            self.advance()
            return ast.DropStmt(kind_tok.kind, self._relation_name())
        if tok.kind == "DELETE":
            return self._delete()
        if tok.kind == "UPDATE":
            return self._update()
        if tok.kind in ("SELECT", "LPAREN"):
            return self.parse_query()
        raise ParseError(
            f"unexpected token {tok.kind} ({tok.text!r})",
            tok.line, tok.column,
        )

    # -- TYPE ----------------------------------------------------------------
    def _type_def(self) -> ast.Statement:
        self.expect("TYPE")
        name = self.expect_ident()

        if self.accept("ENUMERATION"):
            self.expect("OF")
            self.expect("LPAREN")
            literals = [self.expect("STRING").text]
            while self.accept("COMMA"):
                literals.append(self.expect("STRING").text)
            self.expect("RPAREN")
            return ast.EnumTypeDef(name, tuple(literals))

        supertype = None
        if self.accept("SUBTYPE"):
            self.expect("OF")
            supertype = self.expect_ident()

        is_object = bool(self.accept("OBJECT"))

        if self.peek().kind == "TUPLE":
            self.advance()
            fields = self._field_list()
            functions = self._function_decls()
            return ast.TupleTypeDef(
                name, fields, is_object or supertype is not None,
                supertype, functions,
            )

        if supertype is not None or is_object:
            raise ParseError(
                f"type {name!r}: OBJECT/SUBTYPE require a TUPLE body"
            )

        if self.peek().kind in _COLLECTION_KINDS:
            kind = self.advance().kind
            self.expect("OF")
            element = self._type_expr()
            return ast.CollTypeDef(name, kind, element)

        tok = self.peek()
        raise ParseError(
            f"unsupported TYPE body starting with {tok.text!r}",
            tok.line, tok.column,
        )

    def _function_decls(self) -> tuple:
        names = []
        while self.accept("FUNCTION"):
            names.append(self.expect_ident())
            self.expect("LPAREN")
            depth = 1
            while depth:
                tok = self.advance()
                if tok.kind == "EOF":
                    raise ParseError("unterminated FUNCTION declaration")
                if tok.kind == "LPAREN":
                    depth += 1
                elif tok.kind == "RPAREN":
                    depth -= 1
        return tuple(names)

    def _field_list(self) -> tuple:
        self.expect("LPAREN")
        fields = [self._field()]
        while self.accept("COMMA"):
            fields.append(self._field())
        self.expect("RPAREN")
        return tuple(fields)

    def _field(self) -> tuple:
        name = self.expect_ident()
        self.expect("COLON")
        return (name, self._type_expr())

    def _type_expr(self) -> ast.TypeExpr:
        tok = self.peek()
        if tok.kind not in _COLLECTION_KINDS and tok.kind != "TUPLE":
            return ast.NamedType(self.expect_ident())
        self.advance()
        self.nest()
        if tok.kind == "TUPLE":
            nested = ast.TupleOf(self._field_list())
        else:
            self.expect("OF")
            nested = ast.CollectionOf(tok.kind, self._type_expr())
        self.depth -= 1
        return nested

    # -- TABLE ---------------------------------------------------------------
    def _table_def(self) -> ast.TableDef:
        self.accept("CREATE")
        self.expect("TABLE")
        name = self._relation_name()
        self.expect("LPAREN")
        columns = [self._field()]
        primary_key: tuple = ()
        while self.accept("COMMA"):
            if self.peek().kind == "PRIMARY":
                self.advance()
                self.expect("KEY")
                self.expect("LPAREN")
                keys = [self.expect_ident()]
                while self.accept("COMMA"):
                    keys.append(self.expect_ident())
                self.expect("RPAREN")
                primary_key = tuple(keys)
                continue
            columns.append(self._field())
        self.expect("RPAREN")
        return ast.TableDef(name, tuple(columns), primary_key)

    # -- VIEW ----------------------------------------------------------------
    def _view_def(self) -> ast.ViewDef:
        self.expect("CREATE")
        self.expect("VIEW")
        name = self._relation_name()
        columns: tuple[str, ...] = ()
        if self.peek().kind == "LPAREN":
            self.advance()
            cols = [self.expect_ident()]
            while self.accept("COMMA"):
                cols.append(self.expect_ident())
            self.expect("RPAREN")
            columns = tuple(cols)
        self.expect("AS")
        query = self.parse_query()
        return ast.ViewDef(name, columns, query)

    # -- INSERT --------------------------------------------------------------
    def _insert(self) -> ast.InsertStmt:
        self.expect("INSERT")
        self.expect("INTO")
        name = self._relation_name()
        self.expect("VALUES")
        rows = [self._row_literal()]
        while self.accept("COMMA"):
            rows.append(self._row_literal())
        return ast.InsertStmt(name, tuple(rows))

    def _delete(self) -> ast.DeleteStmt:
        self.expect("DELETE")
        self.expect("FROM")
        name = self._relation_name()
        where = None
        if self.accept("WHERE"):
            where = self.parse_expression()
        return ast.DeleteStmt(name, where)

    def _update(self) -> ast.UpdateStmt:
        self.expect("UPDATE")
        name = self._relation_name()
        self.expect("SET")
        assignments = [self._assignment()]
        while self.accept("COMMA"):
            assignments.append(self._assignment())
        where = None
        if self.accept("WHERE"):
            where = self.parse_expression()
        return ast.UpdateStmt(name, tuple(assignments), where)

    def _assignment(self) -> tuple:
        column = self.expect_ident()
        tok = self.peek()
        if tok.kind != "OP" or tok.text != "=":
            raise ParseError("expected '=' in SET assignment",
                             tok.line, tok.column)
        self.advance()
        return (column, self.parse_expression())

    def _row_literal(self) -> tuple:
        self.expect("LPAREN")
        values = [self.parse_expression()]
        while self.accept("COMMA"):
            values.append(self.parse_expression())
        self.expect("RPAREN")
        return tuple(values)

    # -- queries -------------------------------------------------------------
    def parse_query(self) -> ast.Query:
        wrapped = bool(self.accept("LPAREN"))
        selects = [self._select()]
        while self.accept("UNION"):
            selects.append(self._select())
        if wrapped:
            self.expect("RPAREN")
        if len(selects) == 1:
            return selects[0]
        return ast.UnionSelect(tuple(selects))

    def _select(self) -> ast.Select:
        if self.accept("LPAREN"):
            self.nest()
            inner = self._select()
            self.depth -= 1
            self.expect("RPAREN")
            return inner
        self.expect("SELECT")
        distinct = bool(self.accept("DISTINCT"))
        items = [self._select_item()]
        while self.accept("COMMA"):
            items.append(self._select_item())
        self.expect("FROM")
        from_items = [self._from_item()]
        while self.accept("COMMA"):
            from_items.append(self._from_item())
        where = None
        if self.accept("WHERE"):
            where = self.parse_expression()
        group_by: tuple = ()
        if self.accept("GROUP"):
            self.expect("BY")
            cols = [self._column_ref()]
            while self.accept("COMMA"):
                cols.append(self._column_ref())
            group_by = tuple(cols)
        having = None
        if self.accept("HAVING"):
            if not group_by:
                tok = self.peek()
                raise ParseError("HAVING requires GROUP BY",
                                 tok.line, tok.column)
            having = self.parse_expression()
        return ast.Select(tuple(items), tuple(from_items), where,
                          group_by, having, distinct)

    def _select_item(self) -> ast.SelectItem:
        if self.peek().kind == "STAR":
            self.advance()
            return ast.SelectItem(ast.Star())
        expr = self.parse_expression()
        alias = None
        if self.accept("AS"):
            alias = self.expect_ident()
        return ast.SelectItem(expr, alias)

    def _from_item(self) -> ast.FromItem:
        name = self._relation_name()
        alias = None
        if self.peek().kind == "IDENT":
            alias = self.advance().text
        return ast.FromItem(name, alias)

    def _column_ref(self) -> ast.ColumnRef:
        first = self.expect_ident()
        if self.accept("DOT"):
            second = self.expect_ident()
            return ast.ColumnRef(second, first)
        return ast.ColumnRef(first)

    # -- expressions ----------------------------------------------------------
    def parse_expression(self) -> ast.Expr:
        self.nest()
        expr = self._or_expr()
        self.depth -= 1
        return expr

    def _or_expr(self) -> ast.Expr:
        parts = [self._and_expr()]
        while self.accept("OR"):
            parts.append(self._and_expr())
        if len(parts) == 1:
            return parts[0]
        return ast.OrExpr(tuple(parts))

    def _and_expr(self) -> ast.Expr:
        parts = [self._not_expr()]
        while self.accept("AND"):
            parts.append(self._not_expr())
        if len(parts) == 1:
            return parts[0]
        return ast.AndExpr(tuple(parts))

    def _not_expr(self) -> ast.Expr:
        if self.accept("NOT"):
            self.nest()
            operand = self._not_expr()
            self.depth -= 1
            return ast.NotExpr(operand)
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        tok = self.peek()
        if tok.kind == "OP" and tok.text in ("=", "<>", "<", ">", "<=", ">="):
            self.advance()
            right = self._additive()
            return ast.BinOp(tok.text, left, right)
        negated = False
        if tok.kind == "NOT" and self.peek(1).kind == "IN":
            self.advance()
            negated = True
            tok = self.peek()
        if tok.kind == "IN":
            self.advance()
            return self._in_tail(left, negated)
        return left

    def _in_tail(self, left: ast.Expr, negated: bool) -> ast.Expr:
        """``IN (SELECT ...)`` or ``IN (v1, v2, ...)``."""
        self.expect("LPAREN")
        if self.peek().kind == "SELECT":
            query = self.parse_query()
            self.expect("RPAREN")
            return ast.InSubquery(left, query, negated)
        values = [self.parse_expression()]
        while self.accept("COMMA"):
            values.append(self.parse_expression())
        self.expect("RPAREN")
        return ast.InList(left, tuple(values), negated)

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in ("+", "-"):
                self.advance()
                right = self._multiplicative()
                left = (ast.BinOp(tok.text, left, right)
                        if type(left) in _LEAVES and type(right) in _LEAVES
                        else self._fold(tok.text, left, right))
            else:
                return left

    def _multiplicative(self) -> ast.Expr:
        left = self._atom()
        while True:
            tok = self.peek()
            if tok.kind == "STAR" or tok.kind == "OP" and tok.text == "/":
                self.advance()
                op, right = tok.text, self._atom()
                left = (ast.BinOp(op, left, right)
                        if type(left) in _LEAVES and type(right) in _LEAVES
                        else self._fold(op, left, right))
            else:
                return left

    def _fold(self, op: str, left: ast.Expr, right: ast.Expr) -> ast.BinOp:
        """``left op right``, one more link of a left-associative chain;
        past ``MAX_FOLDED_DEPTH`` with the levels around it, fail typed."""
        height = 1 + max(self._height(left), self._height(right))
        if height + self.depth > MAX_FOLDED_DEPTH:
            raise self.too_deep(MAX_FOLDED_DEPTH)
        node = ast.BinOp(op, left, right)
        if self.heights is None:
            self.heights = {}
        self.heights[id(node)] = height
        return node

    def _height(self, expr: ast.Expr) -> int:
        """How tall ``expr`` is: remembered for a fold, else counted
        (what is not a fold nests, and nesting is bounded)."""
        known = self.heights and self.heights.get(id(expr))
        if known:
            return known
        height = 0
        for value in vars(expr).values():
            for child in value if isinstance(value, tuple) else (value,):
                if isinstance(child, ast.Expr):
                    height = max(height, 1 + self._height(child))
        return height

    def _atom(self) -> ast.Expr:
        tok = self.peek()

        if tok.kind == "LPAREN":
            self.advance()
            inner = self.parse_expression()
            self.expect("RPAREN")
            return inner

        if tok.kind == "NUMBER":
            self.advance()
            if "." in tok.text:
                return ast.NumberLit(float(tok.text))
            return ast.NumberLit(int(tok.text))

        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            self.nest()
            operand = self._atom()
            self.depth -= 1
            if isinstance(operand, ast.NumberLit):
                return ast.NumberLit(-operand.value)
            return ast.BinOp("-", ast.NumberLit(0), operand)

        if tok.kind == "STRING":
            self.advance()
            return ast.StringLit(tok.text)

        if tok.kind == "TRUE":
            self.advance()
            return ast.BoolLit(True)

        if tok.kind == "FALSE":
            self.advance()
            return ast.BoolLit(False)

        if tok.kind == "EXISTS":
            self.advance()
            self.expect("LPAREN")
            query = self.parse_query()
            self.expect("RPAREN")
            return ast.ExistsSubquery(query)

        if tok.kind == "NEW":
            self.advance()
            type_name = self.expect_ident()
            args = self._call_args()
            return ast.NewObject(type_name, args)

        if tok.kind in _COLLECTION_KINDS and self.peek(1).kind == "LPAREN":
            self.advance()
            return ast.CollectionLit(tok.kind, self._call_args())

        if tok.kind == "TUPLE" and self.peek(1).kind == "LPAREN":
            self.advance()
            return ast.TupleLit(self._call_args())

        if tok.kind == "IDENT":
            self.advance()
            if self.peek().kind == "LPAREN":
                return ast.FnCall(tok.text, self._call_args())
            if self.accept("DOT"):
                column = self.expect_ident()
                return ast.ColumnRef(column, tok.text)
            return ast.ColumnRef(tok.text)

        raise ParseError(
            f"unexpected token {tok.kind} ({tok.text!r}) in expression",
            tok.line, tok.column,
        )

    def _call_args(self) -> tuple:
        self.expect("LPAREN")
        args: list[ast.Expr] = []
        if self.peek().kind == "STAR" and self.peek(1).kind == "RPAREN":
            self.advance()
            args.append(ast.Star())           # COUNT(*)
        elif self.peek().kind != "RPAREN":
            args.append(self.parse_expression())
            while self.accept("COMMA"):
                args.append(self.parse_expression())
        self.expect("RPAREN")
        return tuple(args)


def parse_script(source: str) -> list[ast.Statement]:
    """Parse a ``;``-separated ESQL script."""
    return [s for s, __ in parse_script_with_sources(source)]


def parse_script_with_sources(
    source: str,
) -> list[tuple[ast.Statement, str]]:
    """Parse a script, pairing each statement with its source text.

    The per-statement text is what the durability layer appends to the
    write-ahead log (logical logging): replaying the texts in order
    through the translator reproduces the statements' effects exactly.
    """
    parser = _Parser(tokenize_sql(source))
    statements: list[tuple[ast.Statement, str]] = []
    while not parser.at_end():
        begin = parser.peek().offset
        statement = parser.parse_statement()
        end = parser.peek().offset  # the SEMI / EOF after it
        statements.append((statement, source[begin:end].strip()))
        if not parser.accept("SEMI"):
            break
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(
            f"trailing input: {tok.text!r}", tok.line, tok.column
        )
    return statements


def parse_statement(source: str) -> ast.Statement:
    statements = parse_script(source)
    if len(statements) != 1:
        raise ParseError(f"expected one statement, got {len(statements)}")
    return statements[0]


def parse_query(source: str) -> ast.Query:
    statement = parse_statement(source)
    if not isinstance(statement, (ast.Select, ast.UnionSelect)):
        raise ParseError("expected a SELECT statement")
    return statement


def parse_expression(source: str) -> ast.Expr:
    parser = _Parser(tokenize_sql(source))
    expr = parser.parse_expression()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(
            f"trailing input after expression: {tok.text!r}",
            tok.line, tok.column,
        )
    return expr
