"""Fixpoint reduction: the Alexander / magic-sets method on the algebra.

Section 5.3 of the paper: "in the case of recursive predicates, the
permutation between operators cannot be done so easily.  The application
of a rewriting method such as Magic Sets or Alexander is recognized as
useful [...] it is implemented directly on the algebra expression."

This module implements the two external methods the Figure 9 rule calls:

``ADORNMENT(z, e, f, s)``
    analyses which columns of the fixpoint relation ``z`` are bound to
    constants by the enclosing qualification ``f`` and whether the
    recursion ``e`` is reducible (linear, with the bound columns
    propagatable through every recursive branch).  It outputs the
    *signature* ``s`` -- a list of ``(column, constant)`` pairs -- or
    fails, in which case the rule does not fire and the plan is left
    unchanged (the safe default the paper prescribes).

``ALEXANDER(z, e, s, u)``
    builds the reduced expression ``u``: a *magic* fixpoint collecting
    the bound-argument values reachable from the query constants, and a
    specialized answer fixpoint whose every branch is guarded by the
    magic relation.  The guarded branches are nested searches, which the
    merging rules of Figure 7 subsequently flatten -- the rule
    interplay the paper points out ("the search merging rule is a
    typical case of rule which takes advantage of being applied more
    than once, e.g. before and after pushing selections through
    fixpoints").

``LINEARIZE(z, f, a, u)``
    the non-linear transitive-closure shape ``R = B U p(R o R)`` is
    first rewritten to its right-linear equivalent ``R = B U p(B o R)``
    so the Alexander construction applies (design choice 3 in
    DESIGN.md).
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from repro.errors import MethodError, ReproError
from repro.lera import ops
from repro.lera.analysis import (attrefs_of, map_attrefs, rels_referenced,
                                 shift_rel_indices)
from repro.terms.term import (AttrRef, Const, Fun, Seq, Term, conj,
                              conjuncts, is_fun, mentions, mk_fun, num, sym)

__all__ = ["register_fixpoint_methods", "adorn", "build_alexander"]

_MAGIC_COUNTER = itertools.count(1)


# ---------------------------------------------------------------------------
# adornment analysis
# ---------------------------------------------------------------------------

class Adornment:
    """The signature of a reducible fixpoint selection.

    Attributes
    ----------
    bound:
        Ordered bound column positions of the fixpoint output.
    constants:
        The constant term each bound column is compared to.
    """

    def __init__(self, bound: Sequence[int], constants: Sequence[Const]):
        self.bound = tuple(bound)
        self.constants = tuple(constants)

    def to_term(self) -> Term:
        pairs = [
            mk_fun("LIST", [num(col), const])
            for col, const in zip(self.bound, self.constants)
        ]
        return mk_fun("LIST", pairs)

    @staticmethod
    def from_term(term: Term) -> "Adornment":
        if not is_fun(term, "LIST"):
            raise MethodError(f"malformed adornment term {term!r}")
        bound, constants = [], []
        for pair in term.args:  # type: ignore[union-attr]
            col, const = pair.args  # type: ignore[union-attr]
            bound.append(int(col.value))  # type: ignore[union-attr]
            constants.append(const)
        return Adornment(bound, constants)


def _fix_parts(fix_term: Term) -> tuple[str, list[Term]]:
    if not is_fun(fix_term, "FIX"):
        raise MethodError(f"not a FIX term: {fix_term!r}")
    rel_const, body = fix_term.args  # type: ignore[union-attr]
    name = str(rel_const.value)  # type: ignore[union-attr]
    if is_fun(body, "UNION"):
        branches = list(ops.relation_inputs(body))
    else:
        branches = [body]
    return name, branches


def _bound_columns(qual: Term, position: int) -> list[tuple[int, Const]]:
    """Columns of input ``position`` equated to a constant in ``qual``.

    A column bound to two different constants keeps the first one: the
    magic seed only needs *a* sound starting point, the residual
    conjunct still filters (and makes the answer empty).
    """
    by_column: dict[int, Const] = {}
    for c in conjuncts(qual):
        if not (is_fun(c, "=") and len(c.args) == 2):  # type: ignore
            continue
        left, right = c.args  # type: ignore[union-attr]
        for ref, const in ((left, right), (right, left)):
            if isinstance(ref, AttrRef) and ref.rel == position and \
                    isinstance(const, Const) and const.kind != "symbol":
                by_column.setdefault(ref.pos, const)
    return sorted(by_column.items())


def adorn(fix_term: Term, qual: Term, position: int,
          catalog=None) -> Optional[Adornment]:
    """Compute the reducible signature, or None when the rule must not
    fire.

    Reducibility requirements:

    * the fixpoint is not itself a product of a previous reduction
      (its name carries no ``$`` marker);
    * at least one output column is equated to a constant;
    * every recursive branch is a SEARCH containing the recursive
      relation exactly once (linear recursion);
    * the bound columns can be propagated through every recursive
      branch (shrinking the bound set as needed, per branch analysis).
    """
    try:
        name, branches = _fix_parts(fix_term)
    except MethodError:
        return None
    if "$" in name:
        return None

    bound_pairs = _bound_columns(qual, position)
    if not bound_pairs:
        return None

    rec_branches = [b for b in branches if name in mentions(b)]
    if not rec_branches:
        return None
    for b in rec_branches:
        if not is_fun(b, "SEARCH") or mentions(b)[name] != 1:
            return None

    bound = [col for col, __ in bound_pairs]
    # shrink the bound set until every branch can propagate it
    while bound:
        ok = True
        for branch in rec_branches:
            propagated = _propagatable(branch, name, bound)
            if propagated != set(bound):
                bound = sorted(set(bound) & propagated)
                ok = False
                break
        if ok:
            break
    if not bound:
        return None

    const_by_col = dict(bound_pairs)
    return Adornment(bound, [const_by_col[c] for c in bound])


def _branch_geometry(branch: Term, name: str):
    """(inputs, qual, items, r) with r the recursive occurrence index."""
    inputs, qual, items = ops.search_parts(branch)
    r = None
    for i, rel in enumerate(inputs, start=1):
        if isinstance(rel, Const) and rel.kind == "symbol" and \
                str(rel.value) == name:
            r = i
            break
    if r is None:
        raise MethodError(f"recursive relation {name} not a direct input")
    return inputs, qual, items, r


def _equality_classes(qual: Term) -> dict:
    """Union-find of attribute references joined by equality conjuncts."""
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for c in conjuncts(qual):
        if is_fun(c, "=") and len(c.args) == 2:  # type: ignore
            left, right = c.args  # type: ignore[union-attr]
            if isinstance(left, AttrRef) and isinstance(right, AttrRef):
                union(("a", left.rel, left.pos), ("a", right.rel, right.pos))
            elif isinstance(left, AttrRef) and isinstance(right, Const):
                union(("a", left.rel, left.pos), ("c", right))
            elif isinstance(right, AttrRef) and isinstance(left, Const):
                union(("a", right.rel, right.pos), ("c", left))

    classes: dict = {}
    for node in list(parent):
        classes.setdefault(find(node), []).append(node)
    return classes


def _resolve_subcall_column(branch: Term, name: str, col: int,
                            bound: Sequence[int]) -> Optional[Term]:
    """Express column ``col`` of the recursive occurrence without using
    the occurrence itself: through the head projection (a magic-relation
    column) or an equality chain to another input / a constant.

    Returned references use the *original* branch numbering; relation 0
    denotes the magic relation (column index = position in ``bound``).
    """
    inputs, qual, items, r = _branch_geometry(branch, name)

    # through the head: proj[b] == #r.col for some bound head column b
    for i, b in enumerate(bound, start=1):
        if b <= len(items):
            expr = ops.item_expr(items[b - 1])
            if isinstance(expr, AttrRef) and expr.rel == r and \
                    expr.pos == col:
                return _MagicRef(i)

    # through an equality chain
    classes = _equality_classes(qual)
    for members in classes.values():
        keys = set(members)
        if ("a", r, col) not in keys:
            continue
        for kind, *rest in members:
            if kind == "c":
                return rest[0]
            if kind == "a" and rest[0] != r:
                return AttrRef(rest[0], rest[1])
    return None


class _MagicRef:
    """Placeholder for a magic-relation column during construction."""

    def __init__(self, index: int):
        self.index = index


def _propagatable(branch: Term, name: str,
                  bound: Sequence[int]) -> set[int]:
    """Bound columns whose sub-call value is expressible in this branch."""
    out = set()
    for col in bound:
        try:
            if _resolve_subcall_column(branch, name, col, bound) is not None:
                out.add(col)
        except MethodError:
            return set()
    return out


# ---------------------------------------------------------------------------
# the Alexander construction
# ---------------------------------------------------------------------------

def build_alexander(fix_term: Term, adornment: Adornment,
                    catalog=None) -> Term:
    """Build the reduced fixpoint for a selection with signature
    ``adornment``.

    Shape of the result (width w, bound columns B, constants C)::

        MAGIC  = FIX(R$MAGICk, UNION(VALUES(C), magic-branches))
        ANSWER = FIX(R$BOUNDk, UNION(
                     SEARCH([MAGIC, branch'], AND_i #1.i = #2.B[i],
                            (#2.1 ... #2.w))  for every branch))

    where ``branch'`` renames the recursive relation and MAGIC is inlined
    (the evaluator's common-subexpression cache computes it once).  Each
    magic branch derives the bound-argument values of the recursive call
    from the magic values of the head and the non-recursive inputs.
    """
    name, branches = _fix_parts(fix_term)
    suffix = next(_MAGIC_COUNTER)
    magic_name = f"{name}$MAGIC{suffix}"
    answer_name = f"{name}$BOUND{suffix}"
    bound = adornment.bound

    width = _fix_width(fix_term, name, branches, catalog)

    rec_branches = [b for b in branches if name in mentions(b)]
    base_branches = [b for b in branches if name not in mentions(b)]

    magic_branches = [
        _magic_branch(b, name, magic_name, bound) for b in rec_branches
    ]
    seed = ops.values_rel([list(adornment.constants)])
    magic_term = ops.union([seed] + magic_branches)
    magic_fix = mk_fun("FIX", [sym(magic_name), magic_term])

    specialized = []
    for branch in base_branches + rec_branches:
        renamed = _rename_symbol(branch, name, answer_name)
        guards = conj([
            mk_fun("=", [AttrRef(1, i), AttrRef(2, b)])
            for i, b in enumerate(bound, start=1)
        ])
        identity = [AttrRef(2, p) for p in range(1, width + 1)]
        specialized.append(ops.search([magic_fix, renamed], guards, identity))

    return mk_fun("FIX", [sym(answer_name), ops.union(specialized)])


def _fix_width(fix_term: Term, name: str, branches: list[Term],
               catalog) -> int:
    if catalog is not None:
        from repro.lera.schema import schema_of
        try:
            return len(schema_of(fix_term, catalog))
        except ReproError:
            pass
    # fall back to the projection width of any SEARCH branch
    for b in branches:
        if is_fun(b, "SEARCH"):
            return len(ops.proj_items(b))
    raise MethodError(
        f"cannot determine the width of FIX({name}, ...)"
    )


def _magic_branch(branch: Term, name: str, magic_name: str,
                  bound: Sequence[int]) -> Term:
    """m(subcall bound cols) <- m(head bound cols) JOIN other inputs."""
    inputs, qual, items, r = _branch_geometry(branch, name)

    # new numbering: magic relation first, then the non-recursive inputs
    renumber = {}
    next_index = 2
    for old in range(1, len(inputs) + 1):
        if old == r:
            continue
        renumber[old] = next_index
        next_index += 1

    def remap_ref(ref: AttrRef) -> Optional[Term]:
        if ref.rel == r:
            raise MethodError(
                "conjunct still references the recursive occurrence"
            )
        return AttrRef(renumber[ref.rel], ref.pos)

    kept = []
    for c in conjuncts(qual):
        if r in rels_referenced(c):
            continue
        kept.append(map_attrefs(c, remap_ref))

    # join the magic head values against the head-defining expressions
    for i, b in enumerate(bound, start=1):
        if b > len(items):
            raise MethodError("bound column beyond the head width")
        head_expr = ops.item_expr(items[b - 1])
        if r in rels_referenced(head_expr):
            # the head column comes straight from the sub-call; the
            # propagation happens through the projection instead
            continue
        kept.append(mk_fun("=", [
            AttrRef(1, i), map_attrefs(head_expr, remap_ref)
        ]))

    # output: the sub-call's bound columns
    out_items = []
    for col in bound:
        resolved = _resolve_subcall_column(branch, name, col, bound)
        if resolved is None:
            raise MethodError(
                f"cannot propagate bound column {col} in a magic branch"
            )
        if isinstance(resolved, _MagicRef):
            out_items.append(AttrRef(1, resolved.index))
        elif isinstance(resolved, AttrRef):
            out_items.append(AttrRef(renumber[resolved.rel], resolved.pos))
        else:  # a constant
            out_items.append(resolved)

    new_inputs = [sym(magic_name)] + [
        rel for i, rel in enumerate(inputs, start=1) if i != r
    ]
    return ops.search(new_inputs, conj(kept), out_items)


def _rename_symbol(term: Term, old: str, new: str) -> Term:
    def rec(t: Term) -> Term:
        if isinstance(t, Const) and t.kind == "symbol" and \
                str(t.value) == old:
            return sym(new)
        if isinstance(t, Fun):
            return mk_fun(t.name, [rec(a) for a in t.args])
        return t
    return rec(term)


# ---------------------------------------------------------------------------
# linearization of the transitive-closure shape
# ---------------------------------------------------------------------------

def _is_tc_shape(qual: Term, items: tuple) -> bool:
    """qual == (#1.2 = #2.1), items == (#1.1, #2.2): classic composition."""
    expected_qual = mk_fun("=", [AttrRef(1, 2), AttrRef(2, 1)])
    if qual != expected_qual:
        return False
    exprs = [ops.item_expr(i) for i in items]
    return exprs == [AttrRef(1, 1), AttrRef(2, 2)]


def _method_linearize(inst: list, raw: tuple, binding: dict,
                      ctx) -> Optional[dict]:
    """LINEARIZE(z, f, a, u): R = B U p(R o R)  =>  u = p(B o R).

    Only the classic transitive-closure composition shape is rewritten
    (qualification ``#1.2 = #2.1``, projection ``(#1.1, #2.2)``), for
    which the right-linear equivalence is a standard identity.
    """
    z, f, a = inst[0], inst[1], inst[2]
    if isinstance(z, Seq) or isinstance(f, Seq) or not is_fun(a, "LIST"):
        return None
    if not _is_tc_shape(f, a.args):  # type: ignore[union-attr]
        return None
    x_star = binding.get("*x")
    others = list(x_star.items) if isinstance(x_star, Seq) else []
    if not others:
        return None
    if any(str(z.value) in mentions(b) for b in others):
        return None  # the other branches must be non-recursive
    base = others[0] if len(others) == 1 else ops.union(others)
    u = ops.search([base, z], f, list(a.args))  # type: ignore[union-attr]
    from repro.rules.methods import _out_key
    return {_out_key(raw[3], "LINEARIZE/4"): u}


# ---------------------------------------------------------------------------
# the ADORNMENT / ALEXANDER methods (Figure 9)
# ---------------------------------------------------------------------------

def _method_adornment(inst: list, raw: tuple, binding: dict,
                      ctx) -> Optional[dict]:
    """ADORNMENT(z, e, f, s): compute the signature of FIX(z, e) under
    the qualification f; fail when the reduction must not fire."""
    z, e, f = inst[0], inst[1], inst[2]
    if isinstance(z, Seq) or isinstance(e, Seq) or isinstance(f, Seq):
        return None
    x_star = binding.get("*x")
    position = (len(x_star.items) if isinstance(x_star, Seq) else 0) + 1
    fix_term = mk_fun("FIX", [z, e])
    catalog = ctx.catalog if ctx is not None else None
    adornment = adorn(fix_term, f, position, catalog)
    if adornment is None:
        return None
    from repro.rules.methods import _out_key
    return {_out_key(raw[3], "ADORNMENT/4"): adornment.to_term()}


def _method_alexander(inst: list, raw: tuple, binding: dict,
                      ctx) -> Optional[dict]:
    """ALEXANDER(z, e, s, u): build the reduced fixpoint u."""
    z, e, s = inst[0], inst[1], inst[2]
    if isinstance(z, Seq) or isinstance(e, Seq) or isinstance(s, Seq):
        return None
    adornment = Adornment.from_term(s)
    fix_term = mk_fun("FIX", [z, e])
    catalog = ctx.catalog if ctx is not None else None
    reduced = build_alexander(fix_term, adornment, catalog)
    from repro.rules.methods import _out_key
    return {_out_key(raw[3], "ALEXANDER/4"): reduced}


def _method_fix_bottom(inst: list, raw: tuple, binding: dict,
                       ctx) -> Optional[dict]:
    """FIX_BOTTOM(z, e, u): a fixpoint whose every branch is recursive
    computes the least fixpoint of a base-less monotone operator -- the
    empty relation."""
    z, e = inst[0], inst[1]
    if isinstance(z, Seq) or isinstance(e, Seq) or \
            not isinstance(z, Const):
        return None
    name = str(z.value)
    if is_fun(e, "UNION"):
        branches = list(ops.relation_inputs(e))
    else:
        branches = [e]
    if any(name not in mentions(b) for b in branches):
        return None  # a base exists; the fixpoint is genuine
    width = None
    for b in branches:
        if is_fun(b, "SEARCH"):
            width = len(ops.proj_items(b))
            break
    if width is None:
        return None
    from repro.rules.methods import _out_key
    return {_out_key(raw[2], "FIX_BOTTOM/3"): ops.empty_rel(width)}


def register_fixpoint_methods(registry) -> None:
    registry.register("ADORNMENT", 4, _method_adornment)
    registry.register("ALEXANDER", 4, _method_alexander)
    registry.register("LINEARIZE", 4, _method_linearize)
    registry.register("FIX_BOTTOM", 3, _method_fix_bottom)
