"""Method calls in rule conclusions: the optimizer's external functions.

The paper (section 4.1): "a set of method calls is added in the
conclusion of rules [...] Methods modify input parameters of the right
term, and return them as output parameters used in the left term.  These
external functions should be defined in the ADT function library" -- in
EDS they were C functions with knowledge of the optimizer internals.

Here a method is a Python callable invoked after matching and constraint
checking.  Its *output* arguments are the call-argument variables not
yet bound; the method returns their values (as terms) or None to signal
failure, in which case the rule does not fire.

Built-in library (each is documented with the rule family it serves):

``SUBSTITUTE/3``  merge remapping for the search-merging rule (Figure 7)
``SHIFT/3``       renumber the inner qualification for the same rule
``SUBSTITUTE/4``  attribute remapping for search-through-nest (Figure 8)
``SCHEMA/2``      identity projection list of an expression (Figure 8)
``REFER_SPLIT/4`` the conjuncts REFER holds for, and the rest (Figure 8)
``SEARCH_EACH/4`` one search per union branch for search-through-union
``EVALUATE/2``    constant folding of a ground function call (Figure 12)
``ADORNMENT/2``   binding-pattern analysis of a fixpoint (Figure 9)
``ALEXANDER/3``   fixpoint reduction (Figure 9) -- see repro.rules.fixpoint
"""

from __future__ import annotations

from typing import Optional

from repro.errors import MethodError
from repro.lera import ops
from repro.lera.analysis import map_attrefs, shift_rel_indices
from repro.lera.schema import schema_of
from repro.rules.constraints import refer_predicate
from repro.rules.guards import (Invoke, MethodImpl, compile_call,
                                eval_ground)
from repro.terms.subst import collvar_key
from repro.terms.term import (AttrRef, CollVar, Const, Fun, Seq, Term, Var,
                              boolean, conj, conjuncts, is_ground, mk_fun,
                              num, string)

__all__ = ["MethodRegistry", "default_method_registry", "value_to_term"]


class MethodRegistry:
    """Dispatch table for rule-conclusion methods, keyed by name/arity.
    A call is compiled once into a closure (the implementation looked
    up, one builder per argument); registering a method drops the
    closures, so it reaches rules that were built before it."""

    def __init__(self):
        self._methods: dict[tuple[str, int], MethodImpl] = {}
        self._compiled: dict[Fun, Invoke] = {}

    def register(self, name: str, arity: int, impl: MethodImpl) -> None:
        self._methods[(name.upper(), arity)] = impl
        self._compiled = {}

    def knows(self, name: str, arity: int) -> bool:
        return (name.upper(), arity) in self._methods

    def invoke(self, call: Fun, binding: dict, ctx) -> Optional[dict]:
        """Run one method call; returns new bindings or None on failure."""
        return self.compile(call)(binding, ctx)

    def compile(self, call: Fun) -> Invoke:
        """The compiled ``call``
        (:func:`repro.rules.guards.compile_call`)."""
        memo = self._compiled
        invoke = memo.get(call)
        if invoke is None:
            invoke = memo[call] = compile_call(self._methods, call)
        return invoke


def _out_key(raw_arg: Term, method: str) -> str:
    """Binding key for an output argument (a variable of the rule)."""
    if isinstance(raw_arg, Var):
        return raw_arg.name
    if isinstance(raw_arg, CollVar):
        return collvar_key(raw_arg.name)
    raise MethodError(
        f"{method}: output argument must be a variable, got {raw_arg!r}"
    )


def value_to_term(value) -> Term:
    """Convert a Python runtime value to a constant term."""
    if isinstance(value, bool):
        return boolean(value)
    if isinstance(value, (int, float)):
        return num(value)
    if isinstance(value, str):
        return string(value)
    raise MethodError(f"cannot express {value!r} as a constant term")


# ---------------------------------------------------------------------------
# search merging (Figure 7)
# ---------------------------------------------------------------------------

def _merge_layout(binding: dict) -> tuple[int, int, Fun, tuple]:
    """Common geometry of the search-merging rule's binding.

    Returns (k, l, z, b): k outer relations before the inner search, l
    after it, the inner relation list z and the inner projection items b.
    """
    x_star = binding.get("*x")
    v_star = binding.get("*v")
    z = binding.get("z")
    b = binding.get("b")
    if not isinstance(z, Fun) or z.name != "LIST" or \
            not isinstance(b, Fun) or b.name != "LIST":
        raise MethodError(
            "SUBSTITUTE/3 expects the search-merging binding layout "
            "(x*, z, b, v*)"
        )
    k = len(x_star.items) if isinstance(x_star, Seq) else 0
    l = len(v_star.items) if isinstance(v_star, Seq) else 0
    return k, l, z, b.args


def _merge_remap(expr: Term, binding: dict) -> Term:
    """Remap an outer-search expression after merging (Figure 7).

    The merged relation list is ``x* ++ v* ++ z``: references to the
    inner search (position k+1) are replaced by the inner projection
    expressions shifted behind ``x* ++ v*``; references behind it shift
    down by one.
    """
    k, l, __, items = _merge_layout(binding)
    inner_pos = k + 1
    offset = k + l

    def remap(ref: AttrRef) -> Optional[Term]:
        if ref.rel < inner_pos:
            return None
        if ref.rel == inner_pos:
            if ref.pos > len(items):
                raise MethodError(
                    f"reference #{ref.rel}.{ref.pos} exceeds the inner "
                    f"projection width {len(items)}"
                )
            inner_expr = ops.item_expr(items[ref.pos - 1])
            return shift_rel_indices(inner_expr, offset)
        return AttrRef(ref.rel - 1, ref.pos)

    return map_attrefs(expr, remap)


def _method_substitute3(inst: list, raw: tuple, binding: dict,
                        ctx) -> Optional[dict]:
    """SUBSTITUTE(f, z, f') -- merge remapping (Figure 7)."""
    expr = inst[0]
    if isinstance(expr, Seq):
        raise MethodError("SUBSTITUTE/3 input must be a single term")
    return {_out_key(raw[2], "SUBSTITUTE/3"): _merge_remap(expr, binding)}


def _method_shift3(inst: list, raw: tuple, binding: dict,
                   ctx) -> Optional[dict]:
    """SHIFT(g, z, g') -- renumber the inner qualification (Figure 7)."""
    expr = inst[0]
    if isinstance(expr, Seq):
        raise MethodError("SHIFT/3 input must be a single term")
    k, l, __, ___ = _merge_layout(binding)
    return {_out_key(raw[2], "SHIFT/3"): shift_rel_indices(expr, k + l)}


# ---------------------------------------------------------------------------
# search-through-nest (Figure 8)
# ---------------------------------------------------------------------------

def _method_substitute4(inst: list, raw: tuple, binding: dict,
                        ctx) -> Optional[dict]:
    """SUBSTITUTE(quali*, z, a, quali') -- push-through-nest remap.

    The pushed conjuncts referenced the NEST's output (kept attributes at
    positions 1..#kept); below the NEST they must reference the NEST
    *input* attributes instead.
    """
    quali, z, a = inst[0], inst[1], inst[2]
    conjs = list(quali.items) if isinstance(quali, Seq) else [quali]
    if isinstance(z, Seq) or not isinstance(a, Fun) or a.name != "LIST":
        raise MethodError("SUBSTITUTE/4 expects (quali*, z, a, out)")
    if ctx is None or ctx.catalog is None:
        raise MethodError("SUBSTITUTE/4 needs a catalog")

    width = len(schema_of(z, ctx.catalog, getattr(ctx, "fix_env", {})))
    nested = {ref.pos for ref in a.args
              if isinstance(ref, AttrRef)}
    kept = [p for p in range(1, width + 1) if p not in nested]

    x_star = binding.get("*x")
    position = (len(x_star.items) if isinstance(x_star, Seq) else 0) + 1

    def remap(ref: AttrRef) -> Optional[Term]:
        if ref.rel != position:
            raise MethodError(
                f"pushed conjunct references relation {ref.rel}, "
                f"expected {position}"
            )
        if ref.pos > len(kept):
            raise MethodError(
                f"pushed conjunct references the nested attribute"
            )
        return AttrRef(1, kept[ref.pos - 1])

    rewritten = conj([map_attrefs(c, remap) for c in conjs])
    return {_out_key(raw[3], "SUBSTITUTE/4"): rewritten}


def _method_schema2(inst: list, raw: tuple, binding: dict,
                    ctx) -> Optional[dict]:
    """SCHEMA(z, exp') -- the identity projection list of expression z.

    When ``z`` is a relation LIST (the join* case) the identity spans
    the concatenated inputs: ``#1.1 .. #1.n1, #2.1 .. #2.n2, ...``.
    """
    z = inst[0]
    if isinstance(z, Seq):
        raise MethodError("SCHEMA/2 input must be a single term")
    if ctx is None or ctx.catalog is None:
        raise MethodError("SCHEMA/2 needs a catalog")
    fix_env = getattr(ctx, "fix_env", {})
    if isinstance(z, Fun) and z.name == "LIST":
        items = []
        for rel_index, rel in enumerate(z.args, start=1):
            width = len(schema_of(rel, ctx.catalog, fix_env))
            items.extend(
                AttrRef(rel_index, p) for p in range(1, width + 1)
            )
    else:
        width = len(schema_of(z, ctx.catalog, fix_env))
        items = [AttrRef(1, p) for p in range(1, width + 1)]
    return {_out_key(raw[1], "SCHEMA/2"): mk_fun("LIST", items)}


def _method_refer_split(inst: list, raw: tuple, binding: dict,
                        ctx) -> Optional[dict]:
    """REFER_SPLIT(f, a, fi, fj) -- fi is the conjunction of the
    conjuncts of f that ``REFER(a, .)`` holds for, fj of the others;
    fails when there is none to push."""
    qualification, nested = inst[0], inst[1]
    if isinstance(qualification, Seq):
        raise MethodError("REFER_SPLIT input must be a single term")
    pushed, kept = [], []
    for conjunct in conjuncts(qualification):
        holds = refer_predicate([nested, conjunct], binding, ctx)
        (pushed if holds else kept).append(conjunct)
    if not pushed:
        return None
    return {_out_key(raw[2], "REFER_SPLIT/4"): conj(pushed),
            _out_key(raw[3], "REFER_SPLIT/4"): conj(kept)}


def _method_search_each(inst: list, raw: tuple, binding: dict,
                        ctx) -> Optional[dict]:
    """SEARCH_EACH(SET(u*), f, s, w) -- w is the set of branches u*,
    each under its own ``SEARCH(LIST(u), f, s)`` (Figure 8, union)."""
    branches, qualification, items = inst[0], inst[1], inst[2]
    if not isinstance(branches, Fun) or branches.name != "SET" \
            or isinstance(qualification, Seq) \
            or not isinstance(items, Fun):
        raise MethodError("SEARCH_EACH expects (SET(u*), f, s, out)")
    pushed = [ops.search([branch], qualification, items.args)
              for branch in branches.args]
    return {_out_key(raw[3], "SEARCH_EACH/4"): mk_fun("SET", pushed)}


# ---------------------------------------------------------------------------
# constant folding (Figure 12)
# ---------------------------------------------------------------------------

def _method_evaluate2(inst: list, raw: tuple, binding: dict,
                      ctx) -> Optional[dict]:
    """EVALUATE(F(x, y), a) -- fold a ground function call to a constant."""
    expr = inst[0]
    if isinstance(expr, Seq) or not is_ground(expr):
        return None
    value = eval_ground(expr, ctx)
    return {_out_key(raw[1], "EVALUATE/2"): value_to_term(value)}


# ---------------------------------------------------------------------------
# empty-relation propagation
# ---------------------------------------------------------------------------

def _method_emptyof(inst: list, raw: tuple, binding: dict,
                    ctx) -> Optional[dict]:
    """EMPTYOF(a, u): u = the empty relation as wide as the projection
    list (or relation expression) a."""
    a = inst[0]
    if isinstance(a, Seq):
        raise MethodError("EMPTYOF input must be a single term")
    if isinstance(a, Fun) and a.name == "LIST":
        width = len(a.args)
    else:
        if ctx is None or ctx.catalog is None:
            raise MethodError("EMPTYOF needs a catalog for a relation")
        width = len(schema_of(a, ctx.catalog, getattr(ctx, "fix_env", {})))
    if width == 0:
        raise MethodError("cannot build a zero-width empty relation")
    return {_out_key(raw[1], "EMPTYOF/2"): ops.empty_rel(width)}


def _method_nest_empty(inst: list, raw: tuple, binding: dict,
                       ctx) -> Optional[dict]:
    """NEST_EMPTY(n, a, u): the NEST of an n-wide empty input is the
    empty relation over the kept attributes plus the collection."""
    n_term, a = inst[0], inst[1]
    if not isinstance(n_term, Const) or not isinstance(a, Fun):
        raise MethodError("NEST_EMPTY expects (n, nested-list, out)")
    width = int(n_term.value) - len(a.args) + 1
    if width < 1:
        raise MethodError("inconsistent NEST geometry")
    return {_out_key(raw[2], "NEST_EMPTY/3"): ops.empty_rel(width)}


# ---------------------------------------------------------------------------
# registry assembly
# ---------------------------------------------------------------------------

def default_method_registry() -> MethodRegistry:
    registry = MethodRegistry()
    registry.register("SUBSTITUTE", 3, _method_substitute3)
    registry.register("SHIFT", 3, _method_shift3)
    registry.register("SUBSTITUTE", 4, _method_substitute4)
    registry.register("SCHEMA", 2, _method_schema2)
    registry.register("REFER_SPLIT", 4, _method_refer_split)
    registry.register("SEARCH_EACH", 4, _method_search_each)
    registry.register("EVALUATE", 2, _method_evaluate2)
    registry.register("EMPTYOF", 2, _method_emptyof)
    registry.register("NEST_EMPTY", 3, _method_nest_empty)

    # fixpoint machinery lives in its own module; import lazily to keep
    # the dependency graph acyclic
    from repro.rules.fixpoint import register_fixpoint_methods
    register_fixpoint_methods(registry)
    return registry
