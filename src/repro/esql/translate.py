"""Translation of ESQL statements to LERA terms and catalog actions.

The straightforward translation of section 5: a SELECT becomes a
compound SEARCH, view references are expanded (query modification),
GROUP BY with collection constructors becomes NEST, recursive views
become FIX terms, and UNION maps to the n-ary union operator.  Type
checking / generic-function inference runs later
(:mod:`repro.lera.typecheck`), invoked by the optimizer pipeline.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.adt.types import DataType, TypeSystem
from repro.adt.values import (ArrayValue, BagValue, ListValue, SetValue,
                              TupleValue)
from repro.engine.catalog import Catalog, ViewDef
from repro.errors import NestingTooDeep, TranslationError
from repro.esql import ast
from repro.lera import ops
from repro.lifecycle.context import current_context
from repro.lera.schema import Schema, schema_of
from repro.terms.term import (AttrRef, Term, boolean, conj, disj, mk_fun,
                              num, string, sym, term_depth)

__all__ = ["Translator"]

# aggregate functions allowed with GROUP BY; the MAKE* constructors turn
# into NEST collections, the others fold the per-group bag
_COLLECTION_AGGS = {"MAKESET": "SET", "MAKEBAG": "BAG", "MAKELIST": "LIST"}
_SCALAR_AGGS = ("COUNT", "SUM", "MIN", "MAX", "AVG")

# How deep a view's expansion may nest, in term levels.  A view stores
# its definition with every view it reads already expanded, so views
# stacked on views grow two levels each (150 of them: 302) and every
# pass over a plan that reads one recurses that deep -- the ledger's
# printed hash at three interpreter frames a level, the nested-loop
# evaluation of an unmerged stack at six a view.  Measured from a test
# runner's stack those reach the interpreter's limit near 157 stacked
# views; the bound sits below that.
MAX_VIEW_DEPTH = 304

# correlated references into the enclosing query block are numbered from
# this base during subquery translation and remapped when the subquery
# is flattened into a semi/anti join
_OUTER_BASE = 1000


def _conjuncts_of(where) -> list:
    """Flatten an AST WHERE into its top-level conjuncts."""
    if where is None:
        return []
    if isinstance(where, ast.AndExpr):
        out = []
        for operand in where.operands:
            out.extend(_conjuncts_of(operand))
        return out
    return [where]


def _is_subquery_conjunct(expr) -> bool:
    if isinstance(expr, (ast.InSubquery, ast.ExistsSubquery)):
        return True
    return (isinstance(expr, ast.NotExpr)
            and isinstance(expr.operand, ast.ExistsSubquery))


def _contains_subquery(expr) -> bool:
    if isinstance(expr, (ast.InSubquery, ast.ExistsSubquery)):
        return True
    if isinstance(expr, ast.NotExpr):
        return _contains_subquery(expr.operand)
    if isinstance(expr, (ast.AndExpr, ast.OrExpr)):
        return any(_contains_subquery(e) for e in expr.operands)
    if isinstance(expr, ast.BinOp):
        return _contains_subquery(expr.left) or \
            _contains_subquery(expr.right)
    if isinstance(expr, ast.FnCall):
        return any(_contains_subquery(a) for a in expr.args)
    return False


def _split_subqueries(where):
    """Partition a WHERE into subquery conjuncts and the plain rest.

    Subqueries are only supported as top-level conjuncts (the standard
    flattening restriction); anywhere else is rejected.
    """
    subs, plain = [], []
    for piece in _conjuncts_of(where):
        if _is_subquery_conjunct(piece):
            subs.append(piece)
            continue
        if _contains_subquery(piece):
            raise TranslationError(
                "IN/EXISTS subqueries are only supported as top-level "
                "conjuncts of the WHERE clause"
            )
        plain.append(piece)
    if not plain:
        remaining = None
    elif len(plain) == 1:
        remaining = plain[0]
    else:
        remaining = ast.AndExpr(tuple(plain))
    return subs, remaining


class _FromEntry:
    """One resolved FROM item."""

    __slots__ = ("name", "alias", "term", "schema")

    def __init__(self, name: str, alias: Optional[str], term: Term,
                 schema: Schema):
        self.name = name.upper()
        self.alias = alias.upper() if alias else None
        self.term = term
        self.schema = schema

    def answers_to(self, qualifier: str) -> bool:
        q = qualifier.upper()
        if q == self.alias:
            return True
        if self.alias is not None:
            return False
        # an unaliased dotted relation also answers to its last
        # segment: ``SELECT metrics.Name FROM sys.metrics`` (the
        # column-ref grammar only carries a single qualifier segment)
        return q == self.name or q == self.name.rpartition(".")[2]


class Translator:
    """Translates parsed ESQL statements against a catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # -- statement dispatch ---------------------------------------------------
    def execute(self, statement: ast.Statement,
                undo=None) -> Optional[Term]:
        """Apply a DDL/DML statement, or translate a query to LERA.

        ``undo`` is an optional :class:`repro.durability.UndoLog`; DML
        statements note their before-images on it so a failure anywhere
        in the statement can be rolled back to the statement boundary
        (the mutation paths are additionally staged so that even without
        an undo log a failing statement leaves the catalog untouched).
        """
        if isinstance(statement, ast.EnumTypeDef):
            self.catalog.type_system.define_enumeration(
                statement.name, statement.literals
            )
            return None
        if isinstance(statement, ast.TupleTypeDef):
            self._define_tuple_type(statement)
            return None
        if isinstance(statement, ast.CollTypeDef):
            element = self._resolve_type(statement.element)
            self.catalog.type_system.define_collection(
                statement.name, statement.kind, element
            )
            return None
        if isinstance(statement, ast.TableDef):
            columns = [
                (name, self._resolve_type(texpr))
                for name, texpr in statement.columns
            ]
            self.catalog.define_table(
                statement.name, columns, statement.primary_key
            )
            return None
        if isinstance(statement, ast.ViewDef):
            self._define_view(statement)
            return None
        if isinstance(statement, ast.InsertStmt):
            self._insert(statement, undo)
            return None
        if isinstance(statement, ast.DropStmt):
            if self.catalog.is_virtual(statement.name):
                raise TranslationError(
                    f"cannot DROP {statement.name!r}: sys.* relations "
                    f"are read-only"
                )
            if statement.kind == "TABLE":
                self.catalog.drop_table(statement.name)
            else:
                self.catalog.drop_view(statement.name)
            return None
        if isinstance(statement, ast.DeleteStmt):
            self._delete(statement, undo)
            return None
        if isinstance(statement, ast.UpdateStmt):
            self._update(statement, undo)
            return None
        if isinstance(statement, (ast.Select, ast.UnionSelect)):
            return self.translate_query(statement)
        raise TranslationError(f"unsupported statement {statement!r}")

    # -- types -----------------------------------------------------------------
    def _resolve_type(self, texpr: ast.TypeExpr) -> DataType:
        ts = self.catalog.type_system
        if isinstance(texpr, ast.NamedType):
            return ts.lookup(texpr.name)
        if isinstance(texpr, ast.CollectionOf):
            from repro.adt.types import CollectionType
            return CollectionType(
                texpr.kind, self._resolve_type(texpr.element)
            )
        if isinstance(texpr, ast.TupleOf):
            from repro.adt.types import TupleType
            fields = [
                (name, self._resolve_type(ft)) for name, ft in texpr.fields
            ]
            return TupleType("$anon", fields)
        raise TranslationError(f"unsupported type expression {texpr!r}")

    def _define_tuple_type(self, td: ast.TupleTypeDef) -> None:
        ts = self.catalog.type_system
        fields = [
            (name, self._resolve_type(texpr)) for name, texpr in td.fields
        ]
        if td.is_object:
            ts.define_object(td.name, fields, td.supertype, td.functions)
        else:
            ts.define_tuple(td.name, fields)

    # -- INSERT ------------------------------------------------------------------
    def _insert(self, statement: ast.InsertStmt, undo=None) -> None:
        if self.catalog.is_virtual(statement.table):
            raise TranslationError(
                f"cannot INSERT into {statement.table!r}: sys.* "
                f"relations are read-only"
            )
        relation = self.catalog.table(statement.table)
        if undo is not None:
            # NEW ... literals allocate OIDs below; note the store first
            undo.note_objects(self.catalog.objects)
            undo.note_relation(relation)
        rows = [
            [self._literal_value(e) for e in row]
            for row in statement.rows
        ]
        context = current_context()
        if context is not None:
            context.tick_write(len(rows))
        relation.insert_many(rows, self.catalog.objects)

    def _literal_value(self, expr: ast.Expr):
        if isinstance(expr, ast.NumberLit):
            return expr.value
        if isinstance(expr, ast.StringLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.CollectionLit):
            elements = [self._literal_value(e) for e in expr.elements]
            ctor = {"SET": SetValue, "BAG": BagValue,
                    "LIST": ListValue, "ARRAY": ArrayValue}[expr.kind]
            return ctor(elements)
        if isinstance(expr, ast.TupleLit):
            return tuple(self._literal_value(v) for v in expr.values)
        if isinstance(expr, ast.NewObject):
            value = tuple(self._literal_value(a) for a in expr.args)
            return self.catalog.new_object(expr.type_name, value)
        raise TranslationError(
            f"unsupported literal in INSERT: {expr!r}"
        )

    # -- DELETE / UPDATE --------------------------------------------------------
    def _dml_rows(self, table: str, where) -> tuple:
        """(relation, evaluator, compiled predicate over ``(row,)``)
        for DELETE/UPDATE."""
        from repro.engine.evaluate import Evaluator
        from repro.lera.typecheck import normalize_expression

        if self.catalog.is_virtual(table):
            raise TranslationError(
                f"cannot modify {table!r}: sys.* relations are "
                f"read-only"
            )
        if not self.catalog.is_table(table):
            raise TranslationError(
                f"{table!r} is not a base table (views are read-only)"
            )
        relation = self.catalog.table(table)
        entry = _FromEntry(table, None, sym(table.upper()),
                           relation.schema)
        if where is None:
            qual = boolean(True)
        else:
            qual = normalize_expression(
                self._translate_expr(where, [entry]),
                [relation.schema], self.catalog,
            )
        evaluator = Evaluator(self.catalog)
        return relation, evaluator, evaluator.compile_expr(qual)

    def _delete(self, statement: ast.DeleteStmt, undo=None) -> int:
        relation, __, matches = self._dml_rows(
            statement.table, statement.where
        )
        # evaluate the predicate over every row before mutating anything
        context = current_context()
        kept = []
        for row in relation.rows:
            if context is not None:
                context.tick_write()
            if not matches((row,)):
                kept.append(row)
        removed = len(relation.rows) - len(kept)
        if undo is not None:
            undo.note_relation(relation)
        relation.replace_rows(kept)
        return removed

    def _update(self, statement: ast.UpdateStmt, undo=None) -> int:
        from repro.engine.storage import coerce_value
        from repro.lera.typecheck import normalize_expression

        relation, evaluator, matches = self._dml_rows(
            statement.table, statement.where
        )
        entry = _FromEntry(statement.table, None,
                           sym(statement.table.upper()), relation.schema)
        compiled = []
        for column, expr in statement.assignments:
            position = relation.schema.index_of(column)
            value_expr = normalize_expression(
                self._translate_expr(expr, [entry]),
                [relation.schema], self.catalog,
            )
            compiled.append((position, relation.schema.attr_type(position),
                             evaluator.compile_expr(value_expr)))

        # stage the full replacement row list first: an evaluation or
        # coercion error (or a key violation inside replace_rows) then
        # leaves the relation exactly as it was
        changed = 0
        staged: list[tuple] = []
        context = current_context()
        for row in relation.rows:
            if context is not None:
                context.tick_write()
            if not matches((row,)):
                staged.append(row)
                continue
            new_row = list(row)
            for position, dtype, value_of in compiled:
                new_row[position - 1] = coerce_value(
                    value_of((row,)), dtype, self.catalog.objects
                )
            staged.append(tuple(new_row))
            changed += 1
        if undo is not None:
            undo.note_relation(relation)
        relation.replace_rows(staged)
        return changed

    # -- views -------------------------------------------------------------------
    def _define_view(self, vd: ast.ViewDef) -> None:
        selects = (
            vd.query.selects
            if isinstance(vd.query, ast.UnionSelect)
            else (vd.query,)
        )
        name_upper = vd.name.upper()

        def references_self(select: ast.Select) -> bool:
            return any(
                fi.relation.upper() == name_upper
                for fi in select.from_items
            )

        base = [s for s in selects if not references_self(s)]
        recursive = [s for s in selects if references_self(s)]

        if not base:
            raise TranslationError(
                f"view {vd.name!r}: every branch is recursive"
            )

        base_terms = [
            self._translate_select(s, output_names=vd.columns)
            for s in base
        ]
        anchor_schema = schema_of(base_terms[0], self.catalog)

        if not recursive:
            term = (base_terms[0] if len(base_terms) == 1
                    else ops.union(base_terms))
            self._admit_view(vd.name, term)
            self.catalog.define_view(ViewDef(
                vd.name.upper(), term, anchor_schema, recursive=False,
            ))
            return

        rec_env = {name_upper: anchor_schema}
        rec_terms = [
            self._translate_select(s, output_names=vd.columns,
                                   rec_env=rec_env)
            for s in recursive
        ]
        fix_term = mk_fun(
            "FIX", [sym(name_upper), ops.union(base_terms + rec_terms)]
        )
        self._admit_view(vd.name, fix_term)
        schema = schema_of(fix_term, self.catalog)
        self.catalog.define_view(ViewDef(
            vd.name.upper(), fix_term, schema, recursive=True,
        ))

    @staticmethod
    def _admit_view(name: str, term: Term) -> None:
        """Refuse a view whose expansion nests deeper than any pass
        over a plan that reads it could follow."""
        depth = term_depth(term)
        if depth > MAX_VIEW_DEPTH:
            raise NestingTooDeep(
                f"view {name!r}: its expansion nests {depth} levels "
                f"deep, the limit is {MAX_VIEW_DEPTH} (views stacked "
                f"on views add two levels each)",
                "view", MAX_VIEW_DEPTH,
            )

    # -- queries -----------------------------------------------------------------
    def translate_query(self, query: ast.Query,
                        rec_env: Optional[dict] = None) -> Term:
        if isinstance(query, ast.UnionSelect):
            branches = [
                self._translate_select(s, rec_env=rec_env)
                for s in query.selects
            ]
            widths = {
                len(schema_of(b, self.catalog, rec_env or {}))
                for b in branches
            }
            if len(widths) != 1:
                raise TranslationError(
                    "UNION branches have different widths"
                )
            return ops.union(branches)
        return self._translate_select(query, rec_env=rec_env)

    def _translate_select(self, select: ast.Select,
                          output_names: Sequence[str] = (),
                          rec_env: Optional[dict] = None) -> Term:
        rec_env = rec_env or {}
        entries = [self._resolve_from(fi, rec_env)
                   for fi in select.from_items]

        sub_conjuncts, plain_where = _split_subqueries(select.where)

        qual = (
            self._translate_expr(plain_where, entries)
            if plain_where is not None else boolean(True)
        )

        # expand SELECT * into qualified column references
        items = []
        for si in select.items:
            if isinstance(si.expr, ast.Star):
                for fi, entry in zip(select.from_items, entries):
                    qualifier = fi.alias or fi.relation
                    for name in entry.schema.names:
                        items.append(ast.SelectItem(
                            ast.ColumnRef(name, qualifier)
                        ))
            else:
                items.append(si)

        # apply declared view column names positionally
        if output_names:
            if len(output_names) != len(items):
                raise TranslationError(
                    f"view declares {len(output_names)} columns but the "
                    f"SELECT produces {len(items)}"
                )
            items = [
                ast.SelectItem(si.expr, name)
                for si, name in zip(items, output_names)
            ]

        if sub_conjuncts:
            if select.group_by:
                raise TranslationError(
                    "GROUP BY cannot be combined with IN/EXISTS "
                    "subqueries"
                )
            flattened = self._translate_with_subqueries(
                select, items, entries, plain_where, sub_conjuncts,
                rec_env,
            )
            return (ops.distinct(flattened) if select.distinct
                    else flattened)

        if select.group_by:
            grouped = self._translate_grouped(select, items, entries,
                                              qual)
            return ops.distinct(grouped) if select.distinct else grouped

        out_items = [
            ops.as_item(
                self._translate_expr(si.expr, entries),
                self._item_name(si, i, entries),
            )
            for i, si in enumerate(items, start=1)
        ]
        result = ops.search([e.term for e in entries], qual, out_items)
        return ops.distinct(result) if select.distinct else result

    # -- subquery flattening (select migration) -----------------------------
    def _translate_with_subqueries(self, select, items, entries,
                                   plain_where, sub_conjuncts,
                                   rec_env) -> Term:
        """Flatten IN/EXISTS conjuncts into semi/anti joins.

        The enclosing FROM product becomes an identity search (the
        *core*); each subquery conjunct wraps it in a SEMIJOIN or
        ANTIJOIN; the SELECT items are finally remapped onto the core's
        flat output.
        """
        from repro.lera.analysis import map_attrefs

        qual = (self._translate_expr(plain_where, entries)
                if plain_where is not None else boolean(True))

        widths = [len(e.schema) for e in entries]
        offsets = [0]
        for w in widths:
            offsets.append(offsets[-1] + w)
        identity = [
            AttrRef(i, j)
            for i, w in enumerate(widths, start=1)
            for j in range(1, w + 1)
        ]
        core = ops.search([e.term for e in entries], qual, identity)

        def flatten_ref(ref: AttrRef):
            if ref.rel <= len(entries):
                return AttrRef(1, offsets[ref.rel - 1] + ref.pos)
            return None

        for conjunct in sub_conjuncts:
            core = self._flatten_one(conjunct, core, entries,
                                     flatten_ref, rec_env)

        out_items = []
        for i, si in enumerate(items, start=1):
            expr = map_attrefs(
                self._translate_expr(si.expr, entries), flatten_ref
            )
            out_items.append(
                ops.as_item(expr, self._item_name(si, i, entries))
            )
        return ops.search([core], boolean(True), out_items)

    def _flatten_one(self, conjunct, core: Term, outer_entries,
                     flatten_ref, rec_env) -> Term:
        from repro.lera.analysis import map_attrefs

        if isinstance(conjunct, ast.InSubquery):
            query, negated = conjunct.query, conjunct.negated
            left = conjunct.expr
        elif isinstance(conjunct, ast.ExistsSubquery):
            query, negated, left = conjunct.query, False, None
        elif isinstance(conjunct, ast.NotExpr) and \
                isinstance(conjunct.operand, ast.ExistsSubquery):
            query, negated, left = conjunct.operand.query, True, None
        else:
            raise TranslationError(
                f"unsupported subquery conjunct {conjunct!r}"
            )

        sub_term, correlation = self._translate_subquery(
            query, outer_entries, rec_env
        )

        parts = list(correlation)
        if left is not None:
            left_term = map_attrefs(
                self._translate_expr(left, outer_entries), flatten_ref
            )
            parts.append(mk_fun("=", [left_term, AttrRef(2, 1)]))
        semi_qual = conj(parts)

        builder = ops.antijoin if negated else ops.semijoin
        return builder(core, sub_term, semi_qual)

    def _translate_subquery(self, query, outer_entries, rec_env):
        """Translate a (possibly correlated) subquery.

        Returns ``(term, correlation_conjuncts)`` where the conjuncts
        are expressed over ``#1`` (the enclosing core, already
        flattened) and ``#2`` (the subquery output, with the inner
        columns the correlation needs appended after the declared
        items).
        """
        from repro.lera.analysis import attrefs_of, map_attrefs

        if isinstance(query, ast.UnionSelect):
            # union subqueries are supported uncorrelated
            return self.translate_query(query, rec_env), []
        if query.group_by:
            return self._translate_select(query, rec_env=rec_env), []

        sub_entries = [self._resolve_from(fi, rec_env or {})
                       for fi in query.from_items]

        inner_conjuncts: list[Term] = []
        correlated: list[Term] = []
        for piece in _conjuncts_of(query.where):
            term = self._translate_dual(piece, sub_entries, outer_entries)
            if any(r.rel >= _OUTER_BASE for r in attrefs_of(term)):
                correlated.append(term)
            else:
                inner_conjuncts.append(term)

        sub_items = []
        for i, si in enumerate(query.items, start=1):
            expr = self._translate_expr(si.expr, sub_entries)
            sub_items.append(ops.as_item(
                expr, self._item_name(si, i, sub_entries)
            ))

        # append the inner columns the correlation references
        appended: dict[AttrRef, int] = {}
        next_pos = len(sub_items) + 1
        for term in correlated:
            for ref in attrefs_of(term):
                if ref.rel < _OUTER_BASE and ref not in appended:
                    appended[ref] = next_pos
                    next_pos += 1
        for ref in appended:
            sub_items.append(ref)

        sub_term = ops.search(
            [e.term for e in sub_entries], conj(inner_conjuncts),
            sub_items,
        )

        # the enclosing core is flat: outer entry i starts at its offset
        widths = [len(e.schema) for e in outer_entries]
        offsets = [0]
        for w in widths:
            offsets.append(offsets[-1] + w)

        def remap(ref: AttrRef):
            if ref.rel >= _OUTER_BASE:
                outer_index = ref.rel - _OUTER_BASE
                return AttrRef(1, offsets[outer_index - 1] + ref.pos)
            return AttrRef(2, appended[ref])

        correlation = [map_attrefs(t, remap) for t in correlated]
        return sub_term, correlation

    def _translate_dual(self, expr: ast.Expr, inner_entries,
                        outer_entries) -> Term:
        """Translate an expression resolving columns against the
        subquery's FROM first, then the enclosing query's (correlated
        references are numbered from _OUTER_BASE)."""
        if isinstance(expr, ast.ColumnRef):
            try:
                return self._resolve_column(expr, inner_entries)
            except TranslationError as inner_error:
                try:
                    outer = self._resolve_column(expr, outer_entries)
                except TranslationError:
                    raise inner_error from None
                return AttrRef(_OUTER_BASE + outer.rel, outer.pos)
        if isinstance(expr, ast.BinOp):
            return mk_fun(expr.op, [
                self._translate_dual(expr.left, inner_entries,
                                     outer_entries),
                self._translate_dual(expr.right, inner_entries,
                                     outer_entries),
            ])
        if isinstance(expr, ast.NotExpr):
            return mk_fun("NOT", [
                self._translate_dual(expr.operand, inner_entries,
                                     outer_entries)
            ])
        if isinstance(expr, ast.AndExpr):
            return conj([
                self._translate_dual(e, inner_entries, outer_entries)
                for e in expr.operands
            ])
        if isinstance(expr, ast.OrExpr):
            return disj([
                self._translate_dual(e, inner_entries, outer_entries)
                for e in expr.operands
            ])
        if isinstance(expr, ast.FnCall):
            return mk_fun(expr.name, [
                self._translate_dual(a, inner_entries, outer_entries)
                for a in expr.args
            ])
        return self._translate_expr(expr, inner_entries)

    # -- FROM resolution --------------------------------------------------------
    def _resolve_from(self, fi: ast.FromItem,
                      rec_env: dict) -> _FromEntry:
        name = fi.relation.upper()
        if name in rec_env:
            return _FromEntry(name, fi.alias, sym(name), rec_env[name])
        if self.catalog.is_virtual(name):
            # sys.* introspection relation: scans like a base table;
            # the evaluator materializes its snapshot at scan time
            return _FromEntry(
                name, fi.alias, sym(name),
                self.catalog.relation_schema(name),
            )
        if self.catalog.is_view(name):
            view = self.catalog.view(name)
            return _FromEntry(name, fi.alias, view.term, view.schema)
        if self.catalog.is_table(name):
            return _FromEntry(
                name, fi.alias, sym(name),
                self.catalog.relation_schema(name),
            )
        raise TranslationError(f"unknown relation {fi.relation!r}")

    # -- scalar expressions ---------------------------------------------------
    def _translate_expr(self, expr: ast.Expr,
                        entries: list[_FromEntry]) -> Term:
        if isinstance(expr, ast.NumberLit):
            return num(expr.value)
        if isinstance(expr, ast.StringLit):
            return string(expr.value)
        if isinstance(expr, ast.BoolLit):
            return boolean(expr.value)
        if isinstance(expr, ast.ColumnRef):
            return self._resolve_column(expr, entries)
        if isinstance(expr, ast.BinOp):
            return mk_fun(expr.op, [
                self._translate_expr(expr.left, entries),
                self._translate_expr(expr.right, entries),
            ])
        if isinstance(expr, ast.NotExpr):
            return mk_fun("NOT", [
                self._translate_expr(expr.operand, entries)
            ])
        if isinstance(expr, ast.AndExpr):
            return conj([
                self._translate_expr(e, entries) for e in expr.operands
            ])
        if isinstance(expr, ast.OrExpr):
            return disj([
                self._translate_expr(e, entries) for e in expr.operands
            ])
        if isinstance(expr, ast.CollectionLit):
            ctor = {"SET": "MAKESET", "BAG": "MAKEBAG",
                    "LIST": "MAKELIST", "ARRAY": "MAKEARRAY"}[expr.kind]
            return mk_fun(ctor, [
                self._translate_expr(e, entries) for e in expr.elements
            ])
        if isinstance(expr, ast.FnCall):
            return mk_fun(expr.name, [
                self._translate_expr(a, entries) for a in expr.args
            ])
        if isinstance(expr, ast.InList):
            member = mk_fun("MEMBER", [
                self._translate_expr(expr.expr, entries),
                mk_fun("MAKESET", [
                    self._translate_expr(v, entries) for v in expr.values
                ]),
            ])
            return mk_fun("NOT", [member]) if expr.negated else member
        if isinstance(expr, (ast.InSubquery, ast.ExistsSubquery)):
            raise TranslationError(
                "IN/EXISTS subqueries are only supported as top-level "
                "conjuncts of the WHERE clause"
            )
        raise TranslationError(
            f"unsupported expression in a query: {expr!r}"
        )

    def _resolve_column(self, ref: ast.ColumnRef,
                        entries: list[_FromEntry]) -> AttrRef:
        if ref.qualifier is not None:
            for i, entry in enumerate(entries, start=1):
                if entry.answers_to(ref.qualifier):
                    if not entry.schema.has_attr(ref.name):
                        raise TranslationError(
                            f"relation {ref.qualifier!r} has no column "
                            f"{ref.name!r}; it has "
                            f"{list(entry.schema.names)}"
                        )
                    return AttrRef(i, entry.schema.index_of(ref.name))
            raise TranslationError(
                f"unknown relation or alias {ref.qualifier!r}"
            )
        hits = []
        for i, entry in enumerate(entries, start=1):
            if entry.schema.has_attr(ref.name):
                hits.append(AttrRef(i, entry.schema.index_of(ref.name)))
        if not hits:
            raise TranslationError(f"unknown column {ref.name!r}")
        if len(hits) > 1:
            raise TranslationError(
                f"ambiguous column {ref.name!r}: qualify it with a "
                f"relation name or alias"
            )
        return hits[0]

    def _item_name(self, item: ast.SelectItem, index: int,
                   entries: list[_FromEntry]) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.ColumnRef):
            return item.expr.name
        if isinstance(item.expr, ast.FnCall):
            return item.expr.name.capitalize()
        return f"Col{index}"

    # -- GROUP BY ----------------------------------------------------------------
    def _translate_grouped(self, select: ast.Select, items,
                           entries: list[_FromEntry], qual: Term) -> Term:
        group_refs = [
            self._resolve_column(c, entries) for c in select.group_by
        ]

        group_items: list[tuple[ast.SelectItem, AttrRef]] = []
        agg_items: list[tuple[ast.SelectItem, ast.FnCall]] = []
        for si in items:
            if isinstance(si.expr, ast.ColumnRef):
                ref = self._resolve_column(si.expr, entries)
                if ref not in group_refs:
                    raise TranslationError(
                        f"column {si.expr.name!r} is selected but not "
                        f"grouped"
                    )
                group_items.append((si, ref))
                continue
            if isinstance(si.expr, ast.FnCall) and \
                    si.expr.name.upper() in (
                        set(_COLLECTION_AGGS) | set(_SCALAR_AGGS)):
                agg_items.append((si, si.expr))
                continue
            raise TranslationError(
                f"a grouped SELECT item must be a grouping column or an "
                f"aggregate, got {si.expr!r}"
            )
        if not agg_items:
            raise TranslationError(
                "GROUP BY without an aggregate is not supported"
            )
        selected_refs = [ref for __, ref in group_items]
        if set(selected_refs) != set(group_refs):
            raise TranslationError(
                "every GROUP BY column must be selected exactly once"
            )

        # inner search: grouping columns first, aggregate arguments after
        inner_items = [
            ops.as_item(ref, self._item_name(si, i, entries))
            for i, (si, ref) in enumerate(group_items, start=1)
        ]
        k = len(inner_items)
        for j, (si, call) in enumerate(agg_items, start=1):
            if len(call.args) != 1:
                raise TranslationError(
                    f"aggregate {call.name} takes exactly one argument"
                )
            arg = call.args[0]
            if isinstance(arg, ast.Star):
                if call.name.upper() != "COUNT":
                    raise TranslationError(
                        f"only COUNT accepts *, not {call.name}"
                    )
                arg = ast.NumberLit(1)        # COUNT(*) counts rows
            inner_items.append(ops.as_item(
                self._translate_expr(arg, entries), f"Agg{j}"
            ))
        inner = ops.search([e.term for e in entries], qual, inner_items)

        single = len(agg_items) == 1
        first_name = agg_items[0][1].name.upper()
        if single and first_name in _COLLECTION_AGGS:
            si, call = agg_items[0]
            grouped = ops.nest(
                inner, [AttrRef(1, k + 1)],
                self._item_name(si, k + 1, entries),
                kind=_COLLECTION_AGGS[first_name],
            )
            return self._apply_having(grouped, select)

        # general path: nest everything into a BAG, fold in a projection
        nested_positions = [AttrRef(1, k + j)
                            for j in range(1, len(agg_items) + 1)]
        nest_term = ops.nest(inner, nested_positions, "$group", kind="BAG")
        coll = AttrRef(1, k + 1)  # the collection sits after the kept cols

        out_items: list[Term] = [
            ops.as_item(AttrRef(1, i), self._item_name(si, i, entries))
            for i, (si, __) in enumerate(group_items, start=1)
        ]
        for j, (si, call) in enumerate(agg_items, start=1):
            if len(agg_items) == 1:
                source: Term = coll
            else:
                source = mk_fun("PROJECT", [coll, string(f"Agg{j}")])
            name = call.name.upper()
            if name in _COLLECTION_AGGS:
                folded: Term = mk_fun(
                    "CONVERT", [source, sym(_COLLECTION_AGGS[name])]
                )
            else:
                folded = mk_fun(name, [source])
            out_items.append(ops.as_item(
                folded, self._item_name(si, k + j, entries)
            ))
        grouped = ops.projection(nest_term, out_items)
        return self._apply_having(grouped, select)

    def _apply_having(self, grouped: Term, select: ast.Select) -> Term:
        """HAVING filters the grouped output; column names resolve
        against the grouped schema (select aliases / derived names)."""
        if select.having is None:
            return grouped
        schema = schema_of(grouped, self.catalog)
        entry = _FromEntry("$GROUPED", None, grouped, schema)
        qual = self._translate_expr(select.having, [entry])
        return ops.filter_(grouped, qual)
