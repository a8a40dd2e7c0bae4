"""Type checking and generic-function inference over LERA terms.

Section 5 of the paper lists "type checking function rules" as the first
syntactic-rewriting activity: the rewriter "correctly infers types and
adds the necessary conversion functions".  The canonical example (section
3.3): the ESQL condition ``Salary(Refactor) > 1000`` becomes
``PROJECT(VALUE(Refactor), Salary) > 1000`` in LERA -- the attribute name
applied as a function is resolved to a tuple projection, behind an object
dereference when the operand is an object reference.

:func:`typecheck` walks a LERA term bottom-up, computes every operator's
input schemas, rewrites attribute-as-function calls into explicit
``PROJECT`` / ``VALUE`` chains (broadcasting through collections), and
validates attribute references and function names.
"""

from __future__ import annotations

from typing import Optional

from repro.adt.types import CollectionType, DataType, ObjectType, TupleType
from repro.errors import TypeCheckError
from repro.lera import ops
from repro.lera.schema import (Schema, infer_type, operator_schema,
                               schema_of)
from repro.terms.term import (AttrRef, Const, Fun, Term, is_fun, mk_fun,
                              string)

__all__ = ["typecheck", "normalize_expression"]


def typecheck(term: Term, catalog,
              fix_env: Optional[dict] = None) -> tuple[Term, Schema]:
    """Normalise function calls in ``term`` and return it with its schema."""
    fix_env = fix_env or {}

    if ops.is_relation_name(term):
        return term, schema_of(term, catalog, fix_env)

    if not isinstance(term, Fun):
        raise TypeCheckError(f"not a LERA term: {term!r}")

    name = term.name

    if name == "FIX":
        rel_const, body = term.args
        schema = schema_of(term, catalog, fix_env)
        inner_env = dict(fix_env)
        inner_env[str(rel_const.value)] = schema  # type: ignore[union-attr]
        new_body, __ = typecheck(body, catalog, inner_env)
        new_term = mk_fun("FIX", [rel_const, new_body])
        return new_term, schema

    if name not in ops.LERA_OPERATORS:
        raise TypeCheckError(f"unknown LERA operator {name!r}")

    # every other operator: type the relation operands, put them back
    # where they were, normalise the expressions scoped over their
    # schemas, and ask the operator's typing rule with the schemas held
    typed = [typecheck(r, catalog, fix_env)
             for r in ops.relation_inputs(term)]
    schemas = [schema for __, schema in typed]
    args = ops.args_with_inputs(term, [new for new, __ in typed])
    for i in ops.SCOPED_ARGS.get(name, ()):
        if is_fun(args[i], "LIST"):  # the projection items
            args[i] = mk_fun("LIST", [
                _normalize_valid(item, schemas, catalog)
                for item in args[i].args  # type: ignore[union-attr]
            ])
        else:
            args[i] = _normalize_valid(args[i], schemas, catalog)
    new_term = mk_fun(name, args)
    if name in ("UNION", "INTERSECTION"):
        # their SET re-sorted, and merged, the typed operands: line the
        # schemas up with the operands the new term really has
        schema_by_operand = dict(typed)
        schemas = [schema_by_operand[r]
                   for r in ops.relation_inputs(new_term)]
    return new_term, operator_schema(new_term, schemas, catalog)


def _normalize_valid(expr: Term, schemas: list[Schema], catalog) -> Term:
    new_expr = normalize_expression(expr, schemas, catalog)
    # forces attribute-range and typing errors to surface here
    infer_type(new_expr, schemas, catalog)
    return new_expr


def normalize_expression(expr: Term, input_schemas: list[Schema],
                         catalog) -> Term:
    """Rewrite attribute-as-function calls to PROJECT / VALUE chains."""
    if isinstance(expr, (Const, AttrRef)):
        return expr
    if not isinstance(expr, Fun):
        raise TypeCheckError(f"cannot type-check {expr!r}")

    if expr.name == "AS":
        inner = normalize_expression(expr.args[0], input_schemas, catalog)
        return mk_fun("AS", [inner, expr.args[1]])

    if expr.name == "PROJECT" and len(expr.args) == 2:
        base = normalize_expression(expr.args[0], input_schemas, catalog)
        return mk_fun("PROJECT", [base, expr.args[1]])

    args = [normalize_expression(a, input_schemas, catalog)
            for a in expr.args]

    if len(args) == 1:
        arg_type = infer_type(args[0], input_schemas, catalog)
        rewritten = _field_access(expr.name, args[0], arg_type)
        if rewritten is not None:
            return rewritten

    registry = catalog.registry
    if registry.knows(expr.name):
        return mk_fun(expr.name, args)

    raise TypeCheckError(
        f"unknown function {expr.name!r}: it is neither a registered ADT "
        f"function nor an attribute of its operand's type"
    )


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
