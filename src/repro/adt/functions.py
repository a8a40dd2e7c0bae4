"""The built-in ADT function library (paper Figure 1 plus scalars).

Functions are grouped the way the generic-ADT hierarchy groups them:

* at the ``collection`` root: CONVERT, ISEMPTY, EQUAL, INSERT, REMOVE,
  COUNT;
* ``set``: MAKESET, MEMBER, CHOICE, UNION, INTERSECTION, DIFFERENCE,
  INCLUDE, EXIST, ALL;
* ``bag``: MAKEBAG (plus the shared MEMBER/UNION/INTERSECTION/DIFFERENCE);
* ``list``: MAKELIST, APPEND, CONCAT, FIRST, LAST, SUBLIST;
* ``array``: MAKEARRAY, AT, SETAT;
* ``tuple``: PROJECT (attribute-as-function access);
* objects: VALUE (dereference an object identifier);
* scalar operators used inside qualifications: arithmetic, comparisons
  and the Boolean connectives (registered as functions so the EVALUATE
  constant-folding method can run them);
* aggregate helpers over collections: SUM, MIN, MAX, AVG.

Scalar functions *broadcast* over collections where the paper requires it
("the system will automatically apply the appropriate type conversion"):
``PROJECT`` applied to a set of tuples yields the set of projections, and
a comparison between a collection and a scalar yields the collection of
element-wise comparison results, which is what the ALL / EXIST set
quantifiers consume (Figure 4).
"""

from __future__ import annotations

import operator
from typing import Any, Callable

from repro.adt.registry import FunctionDef, FunctionRegistry
from repro.adt.types import (ANY, BOOLEAN, CHAR, INT, NUMERIC, REAL,
                             CollectionType, DataType, ObjectType, TupleType)
from repro.adt.values import (COLLECTION_CTORS, ArrayValue, BagValue,
                              CollectionValue, ListValue, ObjectRef, SetValue,
                              TupleValue)
from repro.errors import FunctionError

__all__ = ["default_registry", "install_builtins", "COMPARISON_NAMES",
           "ARITHMETIC_NAMES", "broadcast1", "EQUALS", "INLINE"]

COMPARISON_NAMES = ("=", "<>", "<", ">", "<=", ">=")
ARITHMETIC_NAMES = ("+", "-", "*", "/")


def _want_collection(value: Any, fn: str) -> CollectionValue:
    if not isinstance(value, CollectionValue):
        raise FunctionError(f"{fn} expects a collection, got {value!r}")
    return value


def _same_kind(a: CollectionValue, b: CollectionValue,
               fn: str) -> Callable[[list], CollectionValue]:
    if type(a) is not type(b):
        raise FunctionError(
            f"{fn} expects collections of the same kind, got "
            f"{a.kind} and {b.kind}"
        )
    return type(a)


def broadcast1(fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """Lift a unary scalar function to map over collections."""
    def lifted(value: Any) -> Any:
        if isinstance(value, CollectionValue):
            return type(value)(lifted(e) for e in value)
        return fn(value)
    return lifted


# ---------------------------------------------------------------------------
# collection-level functions
# ---------------------------------------------------------------------------

def _convert(args: list, ctx: Any) -> Any:
    coll = _want_collection(args[0], "CONVERT")
    target = str(args[1]).upper()
    try:
        ctor = COLLECTION_CTORS[target]
    except KeyError:
        raise FunctionError(f"CONVERT target must be one of "
                            f"{sorted(COLLECTION_CTORS)}, got {target!r}")
    return ctor(coll.elements)


def _isempty(args: list, ctx: Any) -> bool:
    return _want_collection(args[0], "ISEMPTY").is_empty()


def _equal(args: list, ctx: Any) -> bool:
    a = _want_collection(args[0], "EQUAL")
    b = _want_collection(args[1], "EQUAL")
    return a == b


def _insert(args: list, ctx: Any) -> CollectionValue:
    coll = _want_collection(args[1], "INSERT")
    return type(coll)(coll.elements + (args[0],))


def _remove(args: list, ctx: Any) -> CollectionValue:
    coll = _want_collection(args[1], "REMOVE")
    elems = list(coll.elements)
    if args[0] in elems:
        elems.remove(args[0])
    return type(coll)(elems)


def _count(args: list, ctx: Any) -> int:
    return len(_want_collection(args[0], "COUNT"))


# ---------------------------------------------------------------------------
# set / bag functions
# ---------------------------------------------------------------------------

def _makeset(args: list, ctx: Any) -> SetValue:
    return SetValue(args)


def _makebag(args: list, ctx: Any) -> BagValue:
    return BagValue(args)


def _member(args: list, ctx: Any) -> bool:
    coll = _want_collection(args[1], "MEMBER")
    return args[0] in coll


def _choice(args: list, ctx: Any) -> Any:
    coll = _want_collection(args[0], "CHOICE")
    if coll.is_empty():
        raise FunctionError("CHOICE on an empty collection")
    # deterministic "arbitrary" element: the first in insertion order
    return coll.elements[0]


def _union(args: list, ctx: Any) -> CollectionValue:
    a = _want_collection(args[0], "UNION")
    b = _want_collection(args[1], "UNION")
    ctor = _same_kind(a, b, "UNION")
    return ctor(a.elements + b.elements)


def _intersection(args: list, ctx: Any) -> CollectionValue:
    a = _want_collection(args[0], "INTERSECTION")
    b = _want_collection(args[1], "INTERSECTION")
    ctor = _same_kind(a, b, "INTERSECTION")
    b_elems = list(b.elements)
    out = []
    for e in a.elements:
        if e in b_elems:
            out.append(e)
            if isinstance(a, (BagValue, ListValue, ArrayValue)):
                b_elems.remove(e)
    return ctor(out)


def _difference(args: list, ctx: Any) -> CollectionValue:
    a = _want_collection(args[0], "DIFFERENCE")
    b = _want_collection(args[1], "DIFFERENCE")
    ctor = _same_kind(a, b, "DIFFERENCE")
    b_elems = list(b.elements)
    out = []
    for e in a.elements:
        if e in b_elems:
            if isinstance(a, (BagValue, ListValue, ArrayValue)):
                b_elems.remove(e)
        else:
            out.append(e)
    return ctor(out)


def _include(args: list, ctx: Any) -> bool:
    """INCLUDE(x, y): every element of y is in x (set inclusion y <= x)."""
    outer = _want_collection(args[0], "INCLUDE")
    inner = _want_collection(args[1], "INCLUDE")
    return all(e in outer for e in inner)


def _quantifier_all(args: list, ctx: Any) -> bool:
    coll = _want_collection(args[0], "ALL")
    return all(bool(e) for e in coll)


def _quantifier_exist(args: list, ctx: Any) -> bool:
    coll = _want_collection(args[0], "EXIST")
    return any(bool(e) for e in coll)


# ---------------------------------------------------------------------------
# list / array functions
# ---------------------------------------------------------------------------

def _makelist(args: list, ctx: Any) -> ListValue:
    return ListValue(args)


def _makearray(args: list, ctx: Any) -> ArrayValue:
    return ArrayValue(args)


def _append(args: list, ctx: Any) -> ListValue:
    lst = args[0]
    if not isinstance(lst, ListValue):
        raise FunctionError(f"APPEND expects a list, got {lst!r}")
    return lst.append_element(args[1])


def _concat(args: list, ctx: Any) -> ListValue:
    a, b = args
    if not isinstance(a, ListValue) or not isinstance(b, ListValue):
        raise FunctionError("CONCAT expects two lists")
    return a.concat(b)


def _first(args: list, ctx: Any) -> Any:
    lst = args[0]
    if not isinstance(lst, (ListValue, ArrayValue)):
        raise FunctionError(f"FIRST expects a list or array, got {lst!r}")
    if lst.is_empty():
        raise FunctionError("FIRST on an empty collection")
    return lst.elements[0]


def _last(args: list, ctx: Any) -> Any:
    lst = args[0]
    if not isinstance(lst, (ListValue, ArrayValue)):
        raise FunctionError(f"LAST expects a list or array, got {lst!r}")
    if lst.is_empty():
        raise FunctionError("LAST on an empty collection")
    return lst.elements[-1]


def _sublist(args: list, ctx: Any) -> ListValue:
    lst, start, stop = args
    if not isinstance(lst, ListValue):
        raise FunctionError("SUBLIST expects a list")
    return lst.sublist(int(start), int(stop))


def _at(args: list, ctx: Any) -> Any:
    coll, index = args
    if not isinstance(coll, (ArrayValue, ListValue)):
        raise FunctionError("AT expects an array or list")
    return coll[int(index)]


def _setat(args: list, ctx: Any) -> ArrayValue:
    arr, index, value = args
    if not isinstance(arr, ArrayValue):
        raise FunctionError("SETAT expects an array")
    return arr.set_at(int(index), value)


# ---------------------------------------------------------------------------
# tuple and object functions
# ---------------------------------------------------------------------------

def _maketuple(args: list, ctx: Any) -> TupleValue:
    if len(args) % 2:
        raise FunctionError("MAKETUPLE expects name/value pairs")
    pairs = [(str(args[i]), args[i + 1]) for i in range(0, len(args), 2)]
    return TupleValue(pairs)


def _project(args: list, ctx: Any) -> Any:
    """PROJECT(tuple, field) -- broadcasts over collections of tuples."""
    value, fieldname = args
    field = str(fieldname)

    def access(v: Any) -> Any:
        if isinstance(v, TupleValue):
            return v.project(field)
        raise FunctionError(f"PROJECT expects a tuple, got {v!r}")
    return broadcast1(access)(value)


def _value(args: list, ctx: Any) -> Any:
    """VALUE(ref) -- object dereference, broadcasting over collections."""
    def deref(v: Any) -> Any:
        if isinstance(v, ObjectRef):
            return ctx.objects.value_of(v)
        return v  # VALUE on a value is the identity (paper section 3.3)
    return broadcast1(deref)(args[0])


# ---------------------------------------------------------------------------
# scalar operators (broadcasting comparisons)
# ---------------------------------------------------------------------------

def _broadcasting_binop(name: str,
                        op: Callable[[Any, Any], Any]) -> Callable:
    def impl(args: list, ctx: Any) -> Any:
        a, b = args
        if isinstance(a, CollectionValue) and not isinstance(b, CollectionValue):
            return type(a)(impl([e, b], ctx) for e in a)
        if isinstance(b, CollectionValue) and not isinstance(a, CollectionValue):
            return type(b)(impl([a, e], ctx) for e in b)
        try:
            return op(a, b)
        except TypeError as exc:
            raise FunctionError(f"{name} cannot combine "
                                f"{a!r} and {b!r}") from exc
    return impl


def _div(a: Any, b: Any) -> Any:
    if b == 0:
        raise FunctionError("division by zero")
    result = a / b
    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return a // b
    return result


def _not(args: list, ctx: Any) -> bool:
    return not bool(args[0])


def _and(args: list, ctx: Any) -> bool:
    return all(bool(a) for a in args)


def _or(args: list, ctx: Any) -> bool:
    return any(bool(a) for a in args)


def _sum(args: list, ctx: Any) -> Any:
    coll = _want_collection(args[0], "SUM")
    return sum(coll.elements)


def _min(args: list, ctx: Any) -> Any:
    coll = _want_collection(args[0], "MIN")
    if coll.is_empty():
        raise FunctionError("MIN on an empty collection")
    return min(coll.elements)


def _max(args: list, ctx: Any) -> Any:
    coll = _want_collection(args[0], "MAX")
    if coll.is_empty():
        raise FunctionError("MAX on an empty collection")
    return max(coll.elements)


def _avg(args: list, ctx: Any) -> Any:
    coll = _want_collection(args[0], "AVG")
    if coll.is_empty():
        raise FunctionError("AVG on an empty collection")
    return sum(coll.elements) / len(coll)


# ---------------------------------------------------------------------------
# type rules (used by the LERA type checker)
# ---------------------------------------------------------------------------

def _bool_rule(arg_types: list, ts: Any) -> DataType:
    return BOOLEAN


def _int_rule(arg_types: list, ts: Any) -> DataType:
    return INT


def _numeric_rule(arg_types: list, ts: Any) -> DataType:
    return NUMERIC


def _element_rule(arg_types: list, ts: Any) -> DataType:
    t = arg_types[0]
    return t.element if isinstance(t, CollectionType) else ANY


def _same_rule(arg_types: list, ts: Any) -> DataType:
    return arg_types[0]


def _set_of_first_rule(arg_types: list, ts: Any) -> DataType:
    element = arg_types[0] if arg_types else ANY
    return CollectionType("SET", element)


def _bag_of_first_rule(arg_types: list, ts: Any) -> DataType:
    element = arg_types[0] if arg_types else ANY
    return CollectionType("BAG", element)


def _list_of_first_rule(arg_types: list, ts: Any) -> DataType:
    element = arg_types[0] if arg_types else ANY
    return CollectionType("LIST", element)


def _value_rule(arg_types: list, ts: Any) -> DataType:
    t = arg_types[0]
    if isinstance(t, ObjectType):
        return t.value_type
    if isinstance(t, CollectionType) and isinstance(t.element, ObjectType):
        return CollectionType(t.kind, t.element.value_type)
    return t


def _project_rule(arg_types: list, ts: Any) -> DataType:
    # PROJECT(tuple, field); the field name is a symbol constant whose
    # "type" slot carries the name -- the checker special-cases this, so
    # here fall back to ANY when it cannot be resolved.
    return ANY


# ---------------------------------------------------------------------------
# registry assembly
# ---------------------------------------------------------------------------

# the built-in binary operators the evaluator inlines, while the
# registry still holds their very implementation: id(impl) -> (the
# Python operator, the operand types for which it is the whole impl --
# two operands of one such type neither broadcast nor raise); the
# impls are made once, so their ids are never reused
INLINE: dict[int, tuple[str, tuple]] = {}
_SCALARS, _NUMBERS = (int, float, str), (int, float)


def _inlined(name: str, symbol: str, op: Callable, rule: Callable,
             types: tuple, **props) -> FunctionDef:
    fdef = FunctionDef(name, _broadcasting_binop(name, op), 2, rule, **props)
    INLINE[id(fdef.impl)] = symbol, types
    return fdef


# the built-in binary ``=``: the evaluator answers it from a hash index
# only while the registry still holds this very definition (an
# extension that replaces ``=`` may equate values a dict lookup keeps
# apart)
EQUALS = _inlined("=", "==", operator.eq, _bool_rule, _SCALARS,
                  commutative=True)
_OPERATORS = (
    EQUALS,
    _inlined("<>", "!=", operator.ne, _bool_rule, _SCALARS, commutative=True),
    _inlined("<", "<", operator.lt, _bool_rule, _SCALARS),
    _inlined(">", ">", operator.gt, _bool_rule, _SCALARS),
    _inlined("<=", "<=", operator.le, _bool_rule, _SCALARS),
    _inlined(">=", ">=", operator.ge, _bool_rule, _SCALARS),
    _inlined("+", "+", operator.add, _numeric_rule, _NUMBERS,
             commutative=True, associative=True),
    _inlined("-", "-", operator.sub, _numeric_rule, _NUMBERS),
    _inlined("*", "*", operator.mul, _numeric_rule, _NUMBERS,
             commutative=True, associative=True),
)


def install_builtins(registry: FunctionRegistry) -> FunctionRegistry:
    """Register the whole built-in library into ``registry``."""
    defs = [
        # collection root (Figure 1)
        FunctionDef("CONVERT", _convert, 2, adt="collection"),
        FunctionDef("ISEMPTY", _isempty, 1, _bool_rule, adt="collection"),
        FunctionDef("EQUAL", _equal, 2, _bool_rule, adt="collection",
                    commutative=True),
        FunctionDef("INSERT", _insert, 2, adt="collection"),
        FunctionDef("REMOVE", _remove, 2, adt="collection"),
        FunctionDef("COUNT", _count, 1, _int_rule, adt="collection"),
        # set
        FunctionDef("MAKESET", _makeset, None, _set_of_first_rule, adt="set"),
        FunctionDef("MEMBER", _member, 2, _bool_rule, adt="set"),
        FunctionDef("CHOICE", _choice, 1, _element_rule, adt="set"),
        FunctionDef("UNION", _union, 2, _same_rule, adt="set",
                    commutative=True, associative=True),
        FunctionDef("INTERSECTION", _intersection, 2, _same_rule, adt="set",
                    commutative=True, associative=True),
        FunctionDef("DIFFERENCE", _difference, 2, _same_rule, adt="set"),
        FunctionDef("INCLUDE", _include, 2, _bool_rule, adt="set"),
        FunctionDef("ALL", _quantifier_all, 1, _bool_rule, adt="set"),
        FunctionDef("EXIST", _quantifier_exist, 1, _bool_rule, adt="set"),
        # bag
        FunctionDef("MAKEBAG", _makebag, None, _bag_of_first_rule, adt="bag"),
        # list
        FunctionDef("MAKELIST", _makelist, None, _list_of_first_rule,
                    adt="list"),
        FunctionDef("APPEND", _append, 2, _same_rule, adt="list"),
        FunctionDef("CONCAT", _concat, 2, _same_rule, adt="list",
                    associative=True),
        FunctionDef("FIRST", _first, 1, _element_rule, adt="list"),
        FunctionDef("LAST", _last, 1, _element_rule, adt="list"),
        FunctionDef("SUBLIST", _sublist, 3, _same_rule, adt="list"),
        # array
        FunctionDef("MAKEARRAY", _makearray, None, adt="array"),
        FunctionDef("AT", _at, 2, _element_rule, adt="array"),
        FunctionDef("SETAT", _setat, 3, _same_rule, adt="array"),
        # tuple / object
        FunctionDef("MAKETUPLE", _maketuple, None, adt="tuple"),
        FunctionDef("PROJECT", _project, 2, _project_rule, adt="tuple"),
        FunctionDef("VALUE", _value, 1, _value_rule, adt="object"),
        # scalar operators
        *_OPERATORS,
        FunctionDef("/", _broadcasting_binop("/", _div), 2, _numeric_rule),
        # DIV is the spelling of division inside rule-language text,
        # where '/' is reserved as the section separator
        FunctionDef("DIV", _broadcasting_binop("DIV", _div), 2,
                    _numeric_rule),
        FunctionDef("NOT", _not, 1, _bool_rule),
        FunctionDef("AND", _and, None, _bool_rule, commutative=True,
                    associative=True),
        FunctionDef("OR", _or, None, _bool_rule, commutative=True,
                    associative=True),
        # aggregates over collections
        FunctionDef("SUM", _sum, 1, _numeric_rule, adt="collection"),
        FunctionDef("MIN", _min, 1, _element_rule, adt="collection"),
        FunctionDef("MAX", _max, 1, _element_rule, adt="collection"),
        FunctionDef("AVG", _avg, 1, _numeric_rule, adt="collection"),
    ]
    for fdef in defs:
        registry.register(fdef, replace=True)
    return registry


def default_registry() -> FunctionRegistry:
    """A fresh registry populated with the whole built-in library."""
    return install_builtins(FunctionRegistry())
