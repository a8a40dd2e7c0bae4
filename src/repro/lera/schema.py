"""Output-schema computation for LERA terms.

A :class:`Schema` is an ordered list of named, typed attributes.  The
schema of a LERA term is needed by the type checker (to resolve
attribute-as-function calls), by the evaluator (NEST grouping, display)
and by the rewrite methods (``SCHEMA`` in Figure 8).

The catalog is consumed through duck typing: anything exposing
``relation_schema(name) -> Schema``, ``type_system`` and ``registry``
works (the real implementation lives in :mod:`repro.engine.catalog`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.adt.types import (ANY, BOOLEAN, CHAR, CollectionType, DataType,
                             EnumerationType, INT, ObjectType, REAL,
                             TupleType)
from repro.errors import SchemaError
from repro.lera import ops
from repro.terms.term import AttrRef, Const, Fun, Term, is_fun, mentions

__all__ = ["Schema", "schema_of", "operator_schema", "infer_type",
           "item_output_name"]


class Schema:
    """An ordered sequence of (attribute name, type) pairs; 1-based access."""

    __slots__ = ("_attrs", "_index")

    def __init__(self, attrs: Iterable[tuple[str, DataType]]):
        self._attrs = tuple(attrs)
        self._index = {}
        for i, (name, __) in enumerate(self._attrs, start=1):
            self._index.setdefault(name.upper(), i)

    def __len__(self) -> int:
        return len(self._attrs)

    def __iter__(self) -> Iterator[tuple[str, DataType]]:
        return iter(self._attrs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Schema) and self._attrs == other._attrs

    def __hash__(self) -> int:
        return hash(self._attrs)

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


def infer_type(expr: Term, input_schemas: list[Schema],
               catalog) -> DataType:
    """Infer the type of a scalar/projection expression.

    ``catalog`` provides ``type_system`` and ``registry``.  Unknown
    functions type as ANY; hard failures (attribute out of range) raise
    SchemaError.
    """
    ts = catalog.type_system
    registry = catalog.registry

    if isinstance(expr, AttrRef):
        if expr.rel - 1 >= len(input_schemas):
            raise SchemaError(
                f"attribute reference #{expr.rel}.{expr.pos} exceeds the "
                f"{len(input_schemas)} input relation(s)"
            )
        return input_schemas[expr.rel - 1].attr_type(expr.pos)

    if isinstance(expr, Const):
        return {
            "int": INT, "real": REAL, "string": CHAR,
            "bool": BOOLEAN, "symbol": CHAR,
        }[expr.kind]

    if isinstance(expr, Fun):
        if expr.name == "AS":
            return infer_type(expr.args[0], input_schemas, catalog)

        arg_types = [infer_type(a, input_schemas, catalog)
                     for a in expr.args]

        # PROJECT(value, 'Field') -- resolve the field type precisely.
        if expr.name == "PROJECT" and len(expr.args) == 2 and \
                isinstance(expr.args[1], Const):
            return _project_type(arg_types[0], str(expr.args[1].value))

        # attribute-as-function on a tuple/object (possibly broadcast)
        field_type = _field_access_type(expr.name, arg_types)
        if field_type is not None:
            return field_type

        fdef = registry.lookup_or_none(expr.name, len(expr.args))
        if fdef is not None and fdef.type_rule is not None:
            result = fdef.type_rule(arg_types, ts)
            # broadcasting comparisons: collection operand -> collection
            if result == BOOLEAN and expr.name in (
                    "=", "<>", "<", ">", "<=", ">="):
                for t in arg_types:
                    if isinstance(t, CollectionType):
                        return CollectionType(t.kind, BOOLEAN)
            return result
        return ANY

    raise SchemaError(f"cannot type {expr!r}")


def _project_type(base: DataType, field: str) -> DataType:
    if isinstance(base, TupleType) and base.has_field(field):
        return base.field_type(field)
    if isinstance(base, ObjectType) and base.value_type.has_field(field):
        return base.value_type.field_type(field)
    if isinstance(base, CollectionType):
        element = _project_type(base.element, field)
        return CollectionType(base.kind, element)
    return ANY


def _field_access_type(name: str,
                       arg_types: list[DataType]) -> Optional[DataType]:
    """Type of ``Field(x)`` when Field names an attribute of x's type."""
    if len(arg_types) != 1:
        return None
    base = arg_types[0]
    if isinstance(base, TupleType) and base.has_field(name):
        return base.field_type(name)
    if isinstance(base, ObjectType) and base.value_type.has_field(name):
        return base.value_type.field_type(name)
    if isinstance(base, CollectionType):
        inner = _field_access_type(name, [base.element])
        if inner is not None:
            return CollectionType(base.kind, inner)
    return None


def schema_of(term: Term, catalog,
              fix_env: Optional[dict] = None) -> Schema:
    """Compute the output schema of a LERA term.

    ``fix_env`` maps in-scope fixpoint relation names to their schemas.
    """
    fix_env = fix_env or {}

    if ops.is_relation_name(term):
        name = str(term.value)  # type: ignore[union-attr]
        if name in fix_env:
            return fix_env[name]
        return catalog.relation_schema(name)

    if not isinstance(term, Fun):
        raise SchemaError(f"not a LERA term: {term!r}")

    if term.name == "FIX":
        return _fix_schema(term, catalog, fix_env)

    return operator_schema(
        term,
        [schema_of(r, catalog, fix_env) for r in ops.relation_inputs(term)],
        catalog,
    )


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
        return out

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


def _items_schema(items, input_schemas: list[Schema], catalog) -> Schema:
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
        attrs.append((name, infer_type(expr, input_schemas, catalog)))
    return Schema(attrs)


def _fix_schema(term: Fun, catalog, fix_env: dict) -> Schema:
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
    anchor = schema_of(candidates[0], catalog, fix_env)
    inner_env = dict(fix_env)
    inner_env[rel_name] = anchor
    full = schema_of(body, catalog, inner_env)
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
