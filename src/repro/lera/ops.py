"""LERA operator constructors and recognizers (paper section 3).

LERA expressions are plain terms (the rewriter's uniform representation);
this module provides typed constructors, recognizers and accessors so the
rest of the library does not hand-assemble ``Fun`` nodes.

Term shapes
-----------

===================  ====================================================
base relation        ``Const(name, 'symbol')``
filter               ``FILTER(input, qualification)``
projection           ``PROJECTION(input, LIST(item, ...))``
n-ary join (join*)   ``JOIN(LIST(input, ...), qualification)``
search               ``SEARCH(LIST(input, ...), qualification,
                     LIST(item, ...))``
n-ary union (union*) ``UNION(SET(input, ...))``
intersection         ``INTERSECTION(SET(input, ...))``
difference           ``DIFFERENCE(left, right)``
fixpoint             ``FIX(Const(name), expression-using-name)``
nest                 ``NEST(input, LIST(#1.j, ...), LIST('attr', KIND))``
unnest               ``UNNEST(input, #1.j)``
===================  ====================================================

Projection items are either bare expressions or ``AS(expr, 'name')``
wrappers carrying an output attribute name.  Attribute references
``#i.j`` denote attribute ``j`` of the ``i``-th input (both 1-based);
operators with a single input use ``i = 1``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.errors import TermError
from repro.terms.term import (AttrRef, Const, Fun, Term, is_fun, mk_fun,
                              string, sym)

__all__ = [
    "relation", "filter_", "projection", "join", "search", "union",
    "intersection", "difference", "fix", "nest", "unnest", "as_item",
    "is_relation_name", "is_lera_operator", "relation_inputs",
    "args_with_inputs", "INPUTS_IN_COLLECTION", "SCOPED_ARGS",
    "item_expr", "item_name", "proj_items", "LERA_OPERATORS",
    "search_parts", "rel_list", "values_rel", "empty_rel",
    "empty_width", "semijoin", "antijoin", "distinct",
]

LERA_OPERATORS = frozenset({
    "FILTER", "PROJECTION", "JOIN", "SEARCH", "UNION", "INTERSECTION",
    "DIFFERENCE", "FIX", "NEST", "UNNEST", "VALUES", "EMPTY",
    "SEMIJOIN", "ANTIJOIN", "DISTINCT",
})

# Operators whose relation operands (:func:`relation_inputs`) are the
# members of the LIST / SET at argument 0; the others take them as
# leading arguments (FIX: its body, after the name).
INPUTS_IN_COLLECTION = frozenset({"SEARCH", "JOIN", "UNION", "INTERSECTION"})

# Where an operator keeps the expressions scoped over the schemas of
# its relation operands (:func:`relation_inputs`): the argument
# positions of its qualification and of its LIST of projection items.
# The type checker normalises those arguments over the operand schemas
# and the rewrite engine scans them under a context that knows them;
# an operator not listed here has none.
SCOPED_ARGS = {
    "SEARCH": (1, 2), "JOIN": (1,), "FILTER": (1,), "PROJECTION": (1,),
    "SEMIJOIN": (2,), "ANTIJOIN": (2,),
}

_NEST_KINDS = ("SET", "BAG", "LIST", "ARRAY")


def relation(name: str) -> Const:
    """A reference to a base or fixpoint relation."""
    return sym(name.upper())


def is_relation_name(term: Term) -> bool:
    return isinstance(term, Const) and term.kind == "symbol"


def is_lera_operator(term: Term) -> bool:
    return isinstance(term, Fun) and term.name in LERA_OPERATORS


def filter_(input_: Term, qualification: Term) -> Term:
    return mk_fun("FILTER", [input_, qualification])


def projection(input_: Term, items: Iterable[Term]) -> Term:
    return mk_fun("PROJECTION", [input_, mk_fun("LIST", items)])


def join(inputs: Sequence[Term], qualification: Term) -> Term:
    if len(inputs) < 2:
        raise TermError("JOIN needs at least two inputs")
    return mk_fun("JOIN", [mk_fun("LIST", inputs), qualification])


def search(inputs: Sequence[Term], qualification: Term,
           items: Iterable[Term]) -> Term:
    """The compound SEARCH operator (projection + restriction + join*)."""
    if not inputs:
        raise TermError("SEARCH needs at least one input")
    return mk_fun("SEARCH", [
        mk_fun("LIST", inputs), qualification, mk_fun("LIST", items),
    ])


def union(inputs: Sequence[Term]) -> Term:
    if not inputs:
        raise TermError("UNION needs at least one input")
    return mk_fun("UNION", [mk_fun("SET", inputs)])


def intersection(inputs: Sequence[Term]) -> Term:
    if not inputs:
        raise TermError("INTERSECTION needs at least one input")
    return mk_fun("INTERSECTION", [mk_fun("SET", inputs)])


def difference(left: Term, right: Term) -> Term:
    return mk_fun("DIFFERENCE", [left, right])


def fix(name: str, expression: Term) -> Term:
    """``fix(R, E(R))``: the saturation of R under E (section 3.2)."""
    return mk_fun("FIX", [relation(name), expression])


def nest(input_: Term, nested_attrs: Sequence[AttrRef], new_attr: str,
         kind: str = "SET") -> Term:
    """Group on the non-nested attributes, collecting ``nested_attrs``.

    ``kind`` selects the collection ADT built for each group.
    """
    kind = kind.upper()
    if kind not in _NEST_KINDS:
        raise TermError(f"NEST kind must be one of {_NEST_KINDS}")
    if not nested_attrs:
        raise TermError("NEST needs at least one nested attribute")
    spec = mk_fun("LIST", [string(new_attr), sym(kind)])
    return mk_fun("NEST", [input_, mk_fun("LIST", nested_attrs), spec])


def unnest(input_: Term, attr: AttrRef) -> Term:
    return mk_fun("UNNEST", [input_, attr])


def distinct(input_: Term) -> Term:
    """Duplicate elimination (SELECT DISTINCT): set semantics on one
    pipeline without changing the rest of the query's bag behaviour."""
    return mk_fun("DISTINCT", [input_])


def semijoin(left: Term, right: Term, qualification: Term) -> Term:
    """Rows of ``left`` with at least one qualifying ``right`` partner.

    The flattened form of an (uncorrelated or correlated) IN / EXISTS
    subquery -- the "select migration" rewriting task of the paper's
    introduction.  ``#1.j`` references the left input, ``#2.j`` the
    right; the output schema is the left schema.
    """
    return mk_fun("SEMIJOIN", [left, right, qualification])


def antijoin(left: Term, right: Term, qualification: Term) -> Term:
    """Rows of ``left`` with NO qualifying ``right`` partner
    (NOT IN / NOT EXISTS)."""
    return mk_fun("ANTIJOIN", [left, right, qualification])


def empty_rel(width: int) -> Term:
    """The empty relation of a given width: ``EMPTY(n)``.

    Produced by the simplification rules when a qualification collapses
    to ``false``; empty-propagation rules then prune the plan around it.
    """
    if width < 1:
        raise TermError("EMPTY needs a positive width")
    return mk_fun("EMPTY", [Const(width, "int")])


def empty_width(term: Term) -> int:
    if not is_fun(term, "EMPTY"):
        raise TermError(f"not an EMPTY term: {term!r}")
    return int(term.args[0].value)  # type: ignore[union-attr]


def values_rel(rows: Sequence[Sequence[Term]]) -> Term:
    """A literal relation: ``VALUES(LIST(LIST(c11, ...), ...))``.

    Used by the Alexander method to seed magic sets with the query
    constants; also handy for tests and examples.
    """
    if not rows:
        raise TermError("VALUES needs at least one row")
    width = len(rows[0])
    row_terms = []
    for row in rows:
        if len(row) != width:
            raise TermError("VALUES rows must have the same width")
        row_terms.append(mk_fun("LIST", row))
    return mk_fun("VALUES", [mk_fun("LIST", row_terms)])


def as_item(expr: Term, name: str) -> Term:
    """A named projection item."""
    return mk_fun("AS", [expr, string(name)])


def item_expr(item: Term) -> Term:
    """The expression of a projection item (unwrapping AS)."""
    if is_fun(item, "AS"):
        return item.args[0]  # type: ignore[union-attr]
    return item


def item_name(item: Term, default: Optional[str] = None) -> Optional[str]:
    """The declared output name of a projection item, if any."""
    if is_fun(item, "AS"):
        name_const = item.args[1]  # type: ignore[union-attr]
        if isinstance(name_const, Const):
            return str(name_const.value)
    return default


def proj_items(term: Term) -> tuple[Term, ...]:
    """The projection items of a SEARCH or PROJECTION term."""
    if is_fun(term, "SEARCH"):
        items = term.args[2]  # type: ignore[union-attr]
    elif is_fun(term, "PROJECTION"):
        items = term.args[1]  # type: ignore[union-attr]
    else:
        raise TermError(f"no projection items in {term!r}")
    if not is_fun(items, "LIST"):
        raise TermError(f"malformed projection list in {term!r}")
    return items.args  # type: ignore[union-attr]


def rel_list(term: Term) -> tuple[Term, ...]:
    """The input relations of a SEARCH or JOIN term."""
    if not (is_fun(term, "SEARCH") or is_fun(term, "JOIN")):
        raise TermError(f"no relation list in {term!r}")
    rels = term.args[0]  # type: ignore[union-attr]
    if not is_fun(rels, "LIST"):
        raise TermError(f"malformed relation list in {term!r}")
    return rels.args  # type: ignore[union-attr]


def search_parts(term: Term) -> tuple[tuple[Term, ...], Term, tuple[Term, ...]]:
    """Decompose a SEARCH term into (inputs, qualification, items)."""
    if not is_fun(term, "SEARCH"):
        raise TermError(f"not a SEARCH term: {term!r}")
    return rel_list(term), term.args[1], proj_items(term)  # type: ignore


def relation_inputs(term: Term) -> tuple[Term, ...]:
    """The relation-valued operands of any LERA operator."""
    if not isinstance(term, Fun):
        return ()
    name = term.name
    if name in ("SEARCH", "JOIN"):
        return rel_list(term)
    if name in ("UNION", "INTERSECTION"):
        inner = term.args[0]
        if not is_fun(inner, "SET"):
            raise TermError(f"malformed {name} operand in {term!r}")
        return inner.args  # type: ignore[union-attr]
    if name == "DIFFERENCE":
        return term.args
    if name in ("FILTER", "PROJECTION", "NEST", "UNNEST", "DISTINCT"):
        return (term.args[0],)
    if name in ("SEMIJOIN", "ANTIJOIN"):
        return (term.args[0], term.args[1])
    if name == "FIX":
        return (term.args[1],)
    return ()


def args_with_inputs(term: Fun, inputs: Sequence[Term]) -> list[Term]:
    """The arguments of ``term`` (any operator but FIX) with its
    relation operands (:func:`relation_inputs`) replaced, where they
    stand, by ``inputs``; the caller edits the rest and rebuilds with
    ``mk_fun``."""
    args = list(term.args)
    if term.name in INPUTS_IN_COLLECTION:
        args[0] = mk_fun(args[0].name, inputs)
    else:
        args[:len(inputs)] = inputs
    return args
