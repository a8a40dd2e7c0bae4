"""Query fingerprinting: statement -> template -> stable identity.

Millions of users mostly issue the *same* queries with different
constants.  This module gives every parsed ESQL statement a
**template** -- the statement with each literal replaced by a
numbered ``$n`` parameter and with the semantics-safe normalizations
applied (keyword/relation-name casing, whitespace, the order of AND /
OR conjuncts, which are commutative) -- plus a 12-hex **fingerprint**
(SHA-1 of the template, the same width as
:func:`repro.core.rewriter.term_hash`).

The fingerprint is the identity the workload-intelligence layer keys
on: ``sys.statements`` aggregates per-fingerprint call/row/time
statistics, the rewrite ledger and the slow-query log stamp it so
repeated offenders group, and the planned rewrite-result cache
(ROADMAP) will use the template as its cache key.

Computation happens once per distinct statement text:
:func:`fingerprint_source` parses and renders behind a bounded
memo keyed on the raw source, so the steady-state cost of
fingerprinting a repeated query is one dict lookup.  Statements the
parser rejects (or multi-statement scripts handed to the source-level
API) fall back to a whitespace-collapsed raw-text template -- still a
stable grouping key, just not parameterized.

Propagation follows the :class:`~repro.obs.telemetry.TraceContext`
pattern: :func:`use_fingerprint` installs the statement's fingerprint
for its dynamic extent and sinks call :func:`current_fingerprint` at
delivery time.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import NamedTuple, Optional

from repro.esql import ast

__all__ = ["Fingerprint", "fingerprint_statement", "fingerprint_source",
           "current_fingerprint", "use_fingerprint"]

# the placeholder used while *sorting* commutative operands: two
# conjuncts that differ only in their literals must sort identically,
# or the parameter numbering would leak back into the order
_HOLE = "$?"


class Fingerprint(NamedTuple):
    """A statement's normalized template and its 12-hex identity."""

    template: str
    fingerprint: str
    # ast.is_query of the statement it was rendered from (False for the
    # raw fallbacks): a holder of only the text can classify a repeated
    # statement from the memo, without parsing it again
    is_query: bool = False

    def __bool__(self) -> bool:  # Fingerprint("", "") is falsy
        return bool(self.fingerprint)


class _Renderer:
    """Renders one statement into its canonical template.

    ``parameterize=False`` renders literals as the fixed ``$?`` hole
    instead of numbered parameters -- the order-independent form used
    as the sort key for AND/OR operands.
    """

    def __init__(self, parameterize: bool = True):
        self.parameterize = parameterize
        self.count = 0

    def param(self) -> str:
        if not self.parameterize:
            return _HOLE
        self.count += 1
        return f"${self.count}"

    # -- statements ---------------------------------------------------------
    def statement(self, stmt) -> str:
        if isinstance(stmt, ast.Select):
            return self.select(stmt)
        if isinstance(stmt, ast.UnionSelect):
            return " UNION ".join(self.select(s) for s in stmt.selects)
        if isinstance(stmt, ast.InsertStmt):
            rows = ", ".join(
                "(" + ", ".join(self.expr(cell) for cell in row) + ")"
                for row in stmt.rows
            )
            return f"INSERT INTO {stmt.table.upper()} VALUES {rows}"
        if isinstance(stmt, ast.DeleteStmt):
            out = f"DELETE FROM {stmt.table.upper()}"
            if stmt.where is not None:
                out += f" WHERE {self.expr(stmt.where)}"
            return out
        if isinstance(stmt, ast.UpdateStmt):
            sets = ", ".join(
                f"{column.upper()} = {self.expr(value)}"
                for column, value in stmt.assignments
            )
            out = f"UPDATE {stmt.table.upper()} SET {sets}"
            if stmt.where is not None:
                out += f" WHERE {self.expr(stmt.where)}"
            return out
        raise _Unrenderable(type(stmt).__name__)

    def select(self, select: ast.Select) -> str:
        parts = ["SELECT"]
        if select.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(
            self.expr(item.expr)
            + (f" AS {item.alias.upper()}" if item.alias else "")
            for item in select.items
        ))
        if select.from_items:
            parts.append("FROM")
            parts.append(", ".join(
                item.relation.upper()
                + (f" {item.alias.upper()}" if item.alias else "")
                for item in select.from_items
            ))
        if select.where is not None:
            parts.append("WHERE")
            parts.append(self.expr(select.where))
        if select.group_by:
            parts.append("GROUP BY")
            parts.append(", ".join(
                self.expr(c) for c in select.group_by
            ))
        if select.having is not None:
            parts.append("HAVING")
            parts.append(self.expr(select.having))
        return " ".join(parts)

    # -- expressions --------------------------------------------------------
    def expr(self, e) -> str:
        if isinstance(e, (ast.NumberLit, ast.StringLit, ast.BoolLit)):
            return self.param()
        if isinstance(e, ast.Star):
            return "*"
        if isinstance(e, ast.ColumnRef):
            # identifiers resolve case-insensitively, so casing is a
            # semantics-safe normalization
            if e.qualifier:
                return f"{e.qualifier.upper()}.{e.name.upper()}"
            return e.name.upper()
        if isinstance(e, ast.FnCall):
            args = ", ".join(self.expr(a) for a in e.args)
            return f"{e.name.upper()}({args})"
        if isinstance(e, ast.BinOp):
            return f"({self.expr(e.left)} {e.op} {self.expr(e.right)})"
        if isinstance(e, ast.NotExpr):
            return f"NOT ({self.expr(e.operand)})"
        if isinstance(e, (ast.AndExpr, ast.OrExpr)):
            word = " AND " if isinstance(e, ast.AndExpr) else " OR "
            ordered = self._sorted_operands(e.operands)
            return "(" + word.join(
                self.expr(op) for op in ordered
            ) + ")"
        if isinstance(e, ast.InSubquery):
            keyword = "NOT IN" if e.negated else "IN"
            return (f"{self.expr(e.expr)} {keyword} "
                    f"({self.statement(e.query)})")
        if isinstance(e, ast.ExistsSubquery):
            return f"EXISTS ({self.statement(e.query)})"
        if isinstance(e, ast.InList):
            keyword = "NOT IN" if e.negated else "IN"
            values = ", ".join(self.expr(v) for v in e.values)
            return f"{self.expr(e.expr)} {keyword} ({values})"
        if isinstance(e, ast.NewObject):
            args = ", ".join(self.expr(a) for a in e.args)
            return f"NEW {e.type_name}({args})"
        if isinstance(e, ast.CollectionLit):
            elements = ", ".join(self.expr(v) for v in e.elements)
            return f"{e.kind}({elements})"
        if isinstance(e, ast.TupleLit):
            values = ", ".join(self.expr(v) for v in e.values)
            return f"TUPLE({values})"
        raise _Unrenderable(type(e).__name__)

    def _sorted_operands(self, operands) -> list:
        """AND/OR operands in canonical order.

        The sort key is the *unparameterized* rendering (literals as
        the fixed ``$?`` hole), so ``B = 2 AND A = 1`` and
        ``A = 9 AND B = 8`` normalize to the same operand order; the
        numbered parameters are then assigned over the sorted order,
        keeping numbering deterministic."""
        keyed = [
            (_Renderer(parameterize=False).expr(op), i, op)
            for i, op in enumerate(operands)
        ]
        keyed.sort(key=lambda item: (item[0], item[1]))
        return [op for __, __i, op in keyed]


class _Unrenderable(Exception):
    """An AST shape the template renderer does not cover (DDL)."""


def _digest(template: str) -> str:
    return hashlib.sha1(template.encode("utf-8")).hexdigest()[:12]


def fingerprint_statement(statement) -> Fingerprint:
    """Fingerprint one parsed statement.

    DDL statements (and anything else the renderer does not cover)
    fall back to a raw-ish template of their class name -- DDL carries
    no constants worth parameterizing, and each distinct definition is
    legitimately its own statement."""
    try:
        template = _Renderer().statement(statement)
    except _Unrenderable:
        template = f"{type(statement).__name__}"
    return Fingerprint(template, _digest(template),
                       ast.is_query(statement))


# -- source-level API, memoized ------------------------------------------------

_MEMO_CAPACITY = 512
_memo: dict[str, Fingerprint] = {}
_memo_lock = threading.Lock()


def fingerprint_source(source: str, statement=None) -> Fingerprint:
    """Fingerprint one statement's source text (bounded memo).

    ``statement`` is the already-parsed statement of ``source``, when
    the caller has one: a memo miss then renders it instead of parsing
    the text a second time.

    Unparseable text and multi-statement scripts degrade to a
    whitespace-collapsed raw template: still a stable grouping key
    for the workload views, marked with a leading ``!`` so templates
    and raw fallbacks cannot collide."""
    hit = _memo.get(source)
    if hit is not None:
        return hit
    try:
        if statement is None:
            from repro.esql.parser import parse_script_with_sources
            statements = parse_script_with_sources(source)
            if len(statements) != 1:
                raise _Unrenderable("script")
            statement = statements[0][0]
        fingerprint = fingerprint_statement(statement)
    except Exception:
        template = "!" + " ".join(source.split())
        fingerprint = Fingerprint(template, _digest(template))
    with _memo_lock:
        if len(_memo) >= _MEMO_CAPACITY:
            _memo.clear()
        _memo[source] = fingerprint
    return fingerprint


# -- propagation (the TraceContext pattern) -----------------------------------

_CURRENT: ContextVar[Optional[Fingerprint]] = ContextVar(
    "repro_statement_fingerprint", default=None
)


def current_fingerprint() -> Optional[Fingerprint]:
    """The fingerprint of the running statement, or None outside one."""
    return _CURRENT.get()


@contextmanager
def use_fingerprint(fingerprint: Fingerprint):
    """Install ``fingerprint`` for the dynamic extent of the block."""
    token = _CURRENT.set(fingerprint)
    try:
        yield fingerprint
    finally:
        _CURRENT.reset(token)
