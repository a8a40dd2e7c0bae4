"""Schemas and types of LERA terms, derived once per node.

A :class:`Schema` is an ordered list of named, typed attributes.  The
schema of a LERA term is needed by the type checker (to resolve
attribute-as-function calls), by the evaluator (NEST grouping, display)
and by the rewrite methods (``SCHEMA`` in Figure 8).

This module is the one derivation of a relation's schema
(:func:`schema_of`), an expression's type (:func:`infer_type`) and, in
the walk that types it, an expression's normal form
(:func:`normal_form`, for :mod:`repro.lera.typecheck`).  Terms are
interned, so each result is kept on its node, in ``Fun._derived``, as
``(stamp, scope, derived, normal)``: the value of the catalog's plan
version (DDL and the function registry bump it; no two version objects
ever share a value); the scope by value -- a relation's fixpoint
environment as (name, schema) pairs or an expression's input schemas
(a node is one or the other, never both), schemas compared with
their types' structure; the schema or type; and
whether type checking gives the node back as it is.  A node keeps its
last entry only and an entry holds no term; what raises is not kept,
and a catalog without a ``plan_version`` derives afresh.

The catalog is consumed through duck typing: anything exposing
``relation_schema(name) -> Schema``, ``type_system`` and ``registry``
works (the real implementation lives in :mod:`repro.engine.catalog`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.adt.types import (ANY, BOOLEAN, CHAR, CollectionType, DataType,
                             EnumerationType, INT, ObjectType, REAL,
                             TupleType)
from repro.errors import SchemaError, TypeCheckError
from repro.lera import ops
from repro.terms.term import (AttrRef, Const, Fun, Term, is_fun, mentions,
                              mk_fun, string)

__all__ = ["Schema", "schema_of", "operator_schema", "infer_type",
           "item_output_name"]

_CONST_TYPES = {"int": INT, "real": REAL, "string": CHAR, "bool": BOOLEAN,
                "symbol": CHAR}


class Schema:
    """An ordered sequence of (attribute name, type) pairs; 1-based access."""

    __slots__ = ("_attrs", "_index", "_shape")

    def __init__(self, attrs: Iterable[tuple[str, DataType]]):
        self._attrs = tuple(attrs)
        self._index = {}
        self._shape = self._attrs  # see shape()
        for i, (name, dtype) in enumerate(self._attrs, start=1):
            self._index.setdefault(name.upper(), i)
            if isinstance(dtype, _COMPOUND):
                self._shape = None

    def __len__(self) -> int:
        return len(self._attrs)

    def __iter__(self) -> Iterator[tuple[str, DataType]]:
        return iter(self._attrs)

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, Schema) and \
            (self._shape or self.shape()) == (other._shape or other.shape())

    def __hash__(self) -> int:
        return hash(self._attrs)

    def shape(self) -> tuple:
        """The attributes with every type's structure (see _shape), so
        equal schemas are interchangeable in every derivation; a schema
        of atomic types is its own shape."""
        if self._shape is None:
            self._shape = tuple((n, _shape(t)) for n, t in self._attrs)
        return self._shape

    @property
    def attrs(self) -> tuple[tuple[str, DataType], ...]:
        return self._attrs

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, __ in self._attrs)

    def attr_name(self, pos: int) -> str:
        self._check(pos)
        return self._attrs[pos - 1][0]

    def attr_type(self, pos: int) -> DataType:
        self._check(pos)
        return self._attrs[pos - 1][1]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name.upper()]
        except KeyError:
            raise SchemaError(
                f"unknown attribute {name!r}; schema has {list(self.names)}"
            ) from None

    def has_attr(self, name: str) -> bool:
        return name.upper() in self._index

    def concat(self, other: "Schema") -> "Schema":
        return Schema(self._attrs + other._attrs)

    def project(self, positions: Iterable[int]) -> "Schema":
        return Schema(self._attrs[p - 1] for p in positions)

    def _check(self, pos: int) -> None:
        if not 1 <= pos <= len(self._attrs):
            raise SchemaError(
                f"attribute position {pos} out of range 1..{len(self._attrs)}"
            )

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {t.name}" for n, t in self._attrs)
        return f"Schema({inner})"


_COMPOUND = (TupleType, CollectionType, ObjectType, EnumerationType)


def _shape(t: DataType):
    """A type with all it is made of: types compare by class and name
    alone, and every anonymous tuple type is named ``$anon``."""
    if isinstance(t, TupleType):
        return t, tuple((f, _shape(ft)) for f, ft in t.fields)
    if isinstance(t, CollectionType):
        return t, _shape(t.element)
    if isinstance(t, ObjectType):
        return (t, _shape(t.value_type), t.methods,
                t.supertype and _shape(t.supertype))
    if isinstance(t, EnumerationType):
        return t, t.literals
    return t


def item_output_name(item: Term, index: int,
                     input_schemas: list[Schema]) -> str:
    """Synthesise an output attribute name for a projection item."""
    declared = ops.item_name(item)
    if declared:
        return declared
    expr = ops.item_expr(item)
    if isinstance(expr, AttrRef) and expr.rel - 1 < len(input_schemas):
        schema = input_schemas[expr.rel - 1]
        if 1 <= expr.pos <= len(schema):
            return schema.attr_name(expr.pos)
    if isinstance(expr, Fun) and expr.args:
        return expr.name.capitalize()
    return f"Col{index}"


def stamp_of(catalog) -> Optional[int]:
    """The catalog's part of a memo key: its plan version's value, which
    no other version object ever takes, or None (nothing is kept)."""
    version = getattr(catalog, "plan_version", None)
    return None if version is None else version.value


def infer_type(expr: Term, input_schemas, catalog) -> DataType:
    """Infer the type of a scalar/projection expression.

    ``catalog`` provides ``type_system`` and ``registry``.  Unknown
    functions type as ANY; hard failures (attribute out of range) raise
    SchemaError.
    """
    return _type(expr, tuple(input_schemas), catalog, stamp_of(catalog))


def _type(expr: Term, scope: tuple, catalog, stamp) -> DataType:
    if isinstance(expr, Fun):
        entry = expr._derived
        if entry is not None and entry[0] == stamp and entry[1] == scope:
            return entry[2]
        if expr.name == "AS":
            found = _type(expr.args[0], scope, catalog, stamp)
        else:
            arg_types = []
            for a in expr.args:
                arg_types.append(_type(a, scope, catalog, stamp))
            found = _fun_type(expr, arg_types, catalog)
        if stamp is not None:
            expr._derived = (stamp, scope, found, False)
        return found
    if isinstance(expr, AttrRef):
        if expr.rel - 1 >= len(scope):
            raise SchemaError(
                f"attribute reference #{expr.rel}.{expr.pos} exceeds the "
                f"{len(scope)} input relation(s)"
            )
        return scope[expr.rel - 1].attr_type(expr.pos)
    if isinstance(expr, Const):
        return _CONST_TYPES[expr.kind]
    raise SchemaError(f"cannot type {expr!r}")


def _fun_type(expr: Fun, arg_types: list, catalog) -> DataType:
    """The type of a call (not ``AS``) given its operands' types."""
    name = expr.name
    # PROJECT(value, 'Field') -- resolve the field type precisely.
    if name == "PROJECT" and len(expr.args) == 2 and \
            isinstance(expr.args[1], Const):
        return _project_type(arg_types[0], str(expr.args[1].value))

    # attribute-as-function on a tuple/object (possibly broadcast)
    if len(arg_types) == 1 and \
            _field_access(name, expr.args[0], arg_types[0]) is not None:
        return _project_type(arg_types[0], name)

    fdef = catalog.registry.lookup_or_none(name, len(expr.args))
    if fdef is not None and fdef.type_rule is not None:
        result = fdef.type_rule(arg_types, catalog.type_system)
        # broadcasting comparisons: collection operand -> collection
        if result == BOOLEAN and name in ("=", "<>", "<", ">", "<=", ">="):
            for t in arg_types:
                if isinstance(t, CollectionType):
                    return CollectionType(t.kind, BOOLEAN)
        return result
    return ANY


def _project_type(base: DataType, field: str) -> DataType:
    if isinstance(base, TupleType) and base.has_field(field):
        return base.field_type(field)
    if isinstance(base, ObjectType) and base.value_type.has_field(field):
        return base.value_type.field_type(field)
    if isinstance(base, CollectionType):
        element = _project_type(base.element, field)
        return CollectionType(base.kind, element)
    return ANY


def schema_of(term: Term, catalog,
              fix_env: Optional[dict] = None) -> Schema:
    """Compute the output schema of a LERA term.

    ``fix_env`` maps in-scope fixpoint relation names to their schemas.
    """
    return _schema(term, catalog, tuple(fix_env.items()) if fix_env else (),
                   stamp_of(catalog))


def _schema(term: Term, catalog, scope: tuple, stamp) -> Schema:
    if isinstance(term, Fun):
        entry = term._derived
        if entry is not None and entry[0] == stamp and entry[1] == scope:
            return entry[2]
        if term.name == "FIX":
            found = _fix_schema(term, catalog, scope, stamp)
        else:
            operands = []
            for r in ops.relation_inputs(term):
                operands.append(_schema(r, catalog, scope, stamp))
            found = operator_schema(term, operands, catalog)
        if stamp is not None:
            term._derived = (stamp, scope, found, False)
        return found
    if isinstance(term, Const) and term.kind == "symbol":  # a relation
        name = str(term.value)
        for bound, schema in scope:
            if bound == name:
                return schema
        return catalog.relation_schema(name)
    raise SchemaError(f"not a LERA term: {term!r}")


def operator_schema(term: Fun, operand_schemas: list[Schema],
                    catalog) -> Schema:
    """The typing rule of every operator but FIX: the schema ``term``
    yields given the schemas of its relation operands, in
    :func:`~repro.lera.ops.relation_inputs` order.  :func:`schema_of`
    and the type checker both derive their answer here."""
    name = term.name

    if name in ("SEARCH", "PROJECTION"):
        return _items_schema(ops.proj_items(term), operand_schemas, catalog)

    if name in ("FILTER", "SEMIJOIN", "ANTIJOIN", "DISTINCT"):
        return operand_schemas[0]

    if name == "JOIN":
        out = operand_schemas[0]
        for s in operand_schemas[1:]:
            out = out.concat(s)
        return _shared(out)

    if name in ("UNION", "INTERSECTION", "DIFFERENCE"):
        width = len(operand_schemas[0])
        for s in operand_schemas[1:]:
            if len(s) != width:
                raise SchemaError(
                    f"{name} inputs have different widths: "
                    f"{width} vs {len(s)}"
                )
        return operand_schemas[0]

    if name == "EMPTY":
        width = int(term.args[0].value)  # type: ignore[union-attr]
        return Schema([(f"C{i}", ANY) for i in range(1, width + 1)])

    if name == "VALUES":
        rows_list = term.args[0]
        if not is_fun(rows_list, "LIST") or not rows_list.args:
            raise SchemaError("malformed VALUES term")
        first = rows_list.args[0]  # type: ignore[union-attr]
        if not is_fun(first, "LIST"):
            raise SchemaError("malformed VALUES row")
        attrs = []
        for i, cell in enumerate(first.args, start=1):  # type: ignore
            attrs.append((f"V{i}", infer_type(cell, [], catalog)))
        return Schema(attrs)

    if name == "NEST":
        return _nest_schema(term, operand_schemas[0])

    if name == "UNNEST":
        return _unnest_schema(term, operand_schemas[0])

    raise SchemaError(f"unknown LERA operator {name!r}")


# Equal schemas are one object where nodes keep them (a workload's
# plans yield a few dozen); bounded like the terms' symbol sets.
_SCHEMAS: dict = {}
_SCHEMAS_KEPT = 4096


def _shared(schema: Schema) -> Schema:
    if len(_SCHEMAS) >= _SCHEMAS_KEPT:
        _SCHEMAS.clear()
    return _SCHEMAS.setdefault(schema, schema)


def _items_schema(items, input_schemas: list[Schema], catalog) -> Schema:
    scope, stamp = tuple(input_schemas), stamp_of(catalog)
    attrs = []
    used: set[str] = set()
    for i, item in enumerate(items, start=1):
        name = item_output_name(item, i, input_schemas)
        base = name
        k = 1
        while name.upper() in used:
            k += 1
            name = f"{base}{k}"
        used.add(name.upper())
        expr = ops.item_expr(item)
        attrs.append((name, _type(expr, scope, catalog, stamp)))
    return _shared(Schema(attrs))


def _fix_schema(term: Fun, catalog, scope: tuple, stamp) -> Schema:
    rel_const, body = term.args
    if not isinstance(rel_const, Const):
        raise SchemaError("FIX first operand must be a relation name")
    rel_name = str(rel_const.value)

    # The schema of FIX(R, E) is the schema of E with R bound; it is
    # anchored by a branch of E that does not mention R.
    candidates = []
    if is_fun(body, "UNION"):
        candidates = [b for b in ops.relation_inputs(body)
                      if rel_name not in mentions(b)]
    elif rel_name not in mentions(body):
        candidates = [body]
    if not candidates:
        raise SchemaError(
            f"FIX({rel_name}, ...) has no non-recursive branch to anchor "
            f"its schema"
        )
    anchor = _schema(candidates[0], catalog, scope, stamp)
    inner = dict(scope)
    inner[rel_name] = anchor
    full = _schema(body, catalog, tuple(inner.items()), stamp)
    if len(full) != len(anchor):
        raise SchemaError(
            f"recursive branch of FIX({rel_name}, ...) changes the width"
        )
    return full


def _nest_parts(term: Fun) -> tuple[tuple[int, ...], str, str]:
    __, nested, spec = term.args
    if not is_fun(nested, "LIST") or not is_fun(spec, "LIST"):
        raise SchemaError(f"malformed NEST term {term!r}")
    positions = []
    for a in nested.args:  # type: ignore[union-attr]
        if not isinstance(a, AttrRef) or a.rel != 1:
            raise SchemaError("NEST nested attributes must be #1.j refs")
        positions.append(a.pos)
    name_const, kind_const = spec.args  # type: ignore[union-attr]
    return tuple(positions), str(name_const.value), str(kind_const.value)


def _nest_schema(term: Fun, base: Schema) -> Schema:
    positions, new_name, kind = _nest_parts(term)
    kept = [p for p in range(1, len(base) + 1) if p not in positions]
    if len(positions) == 1:
        element: DataType = base.attr_type(positions[0])
    else:
        element = TupleType(
            f"{new_name}$elem",
            [(base.attr_name(p), base.attr_type(p)) for p in positions],
        )
    nested_type = CollectionType(kind, element)
    attrs = [(base.attr_name(p), base.attr_type(p)) for p in kept]
    attrs.append((new_name, nested_type))
    return Schema(attrs)


def _unnest_schema(term: Fun, base: Schema) -> Schema:
    attr = term.args[1]
    if not isinstance(attr, AttrRef) or attr.rel != 1:
        raise SchemaError("UNNEST attribute must be a #1.j ref")
    coll_type = base.attr_type(attr.pos)
    if isinstance(coll_type, CollectionType):
        element = coll_type.element
    else:
        element = ANY
    attrs = list(base.attrs)
    attrs[attr.pos - 1] = (base.attr_name(attr.pos), element)
    return Schema(attrs)


# -- the normal form of an expression -----------------------------------------

def normal_form(expr: Term, scope: tuple, catalog, stamp,
                typed: bool = True) -> tuple[Term, object]:
    """The normal form of ``expr`` and, when ``typed``, its type, in one
    walk: ``scope`` is the tuple of input schemas, ``stamp`` the
    catalog's :func:`stamp_of`.

    A typing failure stands in the type's place instead of raising; it
    raises at the operand of a one-argument call, whose type decides
    the call's rewrite, and otherwise where the type checker holds the
    whole expression, so an unknown function is reported first.
    Untyped, only such operands are typed."""
    if not isinstance(expr, Fun):
        if not isinstance(expr, (Const, AttrRef)):
            raise TypeCheckError(f"cannot type-check {expr!r}")
        if not typed:
            return expr, None
        try:
            return expr, _type(expr, scope, catalog, stamp)
        except SchemaError as exc:
            return expr, exc
    entry = expr._derived
    if entry is not None and entry[3] and entry[0] == stamp \
            and entry[1] == scope:
        return expr, entry[2]

    name, args = expr.name, expr.args
    if name == "AS" or name == "PROJECT" and len(args) == 2:
        # the output or field name is left as it is
        first, found = normal_form(args[0], scope, catalog, stamp, typed)
        new_args, arg_types = [first, args[1]], [found]
        if name == "PROJECT" and typed:
            arg_types.append(_try_type(args[1], scope, catalog, stamp))
    else:
        new_args, arg_types = [], []
        for a in args:
            normal, found = normal_form(a, scope, catalog, stamp, typed)
            new_args.append(normal)
            arg_types.append(found)
        if len(args) == 1:
            if not typed:
                found = _type(normal, scope, catalog, stamp)
            elif isinstance(found, Exception):
                raise found
            rewritten = _field_access(name, normal, found)
            if rewritten is not None:
                return rewritten, typed and _try_type(rewritten, scope,
                                                      catalog, stamp)
        if not catalog.registry.knows(name):
            raise TypeCheckError(
                f"unknown function {name!r}: it is neither a registered "
                f"ADT function nor an attribute of its operand's type"
            )
    node = mk_fun(name, new_args)
    if not typed:
        return node, None
    if node is expr and entry is not None and entry[0] == stamp \
            and entry[1] == scope:  # typed before, not yet checked
        found = entry[2]
    elif name == "AS":
        found = arg_types[0]
    else:
        if node.args != tuple(new_args):  # re-sorted or merged operands
            arg_types = [_try_type(a, scope, catalog, stamp)
                         for a in node.args]
        found = next((t for t in arg_types if isinstance(t, Exception)),
                     None)
        if found is None:
            try:
                found = _fun_type(node, arg_types, catalog)
            except Exception as exc:  # raised where the whole is checked
                found = exc
    if stamp is not None and not isinstance(found, Exception):
        node._derived = (stamp, scope, found, node is expr)
    return node, found


def _try_type(expr: Term, scope: tuple, catalog, stamp) -> object:
    """The type of ``expr``, or the exception typing it raised."""
    try:
        return _type(expr, scope, catalog, stamp)
    except Exception as exc:
        return exc


def _field_access(name: str, arg: Term,
                  arg_type: DataType) -> Optional[Term]:
    """Build PROJECT(VALUE(arg), 'Field') when ``name`` is a field."""
    if isinstance(arg_type, TupleType) and arg_type.has_field(name):
        return mk_fun("PROJECT", [arg, string(_declared(arg_type, name))])
    if isinstance(arg_type, ObjectType) and \
            arg_type.value_type.has_field(name):
        field = _declared(arg_type.value_type, name)
        return mk_fun("PROJECT", [mk_fun("VALUE", [arg]), string(field)])
    if isinstance(arg_type, CollectionType):
        # broadcast: the same rewrite applies element-wise at runtime
        return _field_access(name, arg, arg_type.element)
    return None


def _declared(tuple_type: TupleType, name: str) -> str:
    for field, __ in tuple_type.fields:
        if field.upper() == name.upper():
            return field
    return name
