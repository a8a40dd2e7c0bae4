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
validates attribute references and function names.  Each expression is
normalised and typed in one walk (:func:`repro.lera.schema.normal_form`),
and a term that comes back as it went in is remembered as checked, with
its schema, on its node: checking it again under the same catalog
version is a lookup, so after a rewrite only the nodes it built are
walked.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TypeCheckError
from repro.lera import ops
from repro.lera.schema import (Schema, normal_form, operator_schema,
                               schema_of, stamp_of)
from repro.terms.term import Fun, Term, is_fun, mk_fun

__all__ = ["typecheck", "normalize_expression"]


def typecheck(term: Term, catalog,
              fix_env: Optional[dict] = None) -> tuple[Term, Schema]:
    """Normalise function calls in ``term`` and return it with its schema."""
    return _typecheck(term, catalog, fix_env or {}, stamp_of(catalog))


def _typecheck(term: Term, catalog, fix_env: dict,
               stamp) -> tuple[Term, Schema]:
    if ops.is_relation_name(term):
        return term, schema_of(term, catalog, fix_env)

    if not isinstance(term, Fun):
        raise TypeCheckError(f"not a LERA term: {term!r}")

    scope = tuple(fix_env.items())
    entry = term._derived  # see repro.lera.schema for the memo entry
    if entry is not None and entry[3] and entry[0] == stamp \
            and entry[1] == scope:
        return term, entry[2]

    name = term.name
    if name == "FIX":
        rel_const, body = term.args
        schema = schema_of(term, catalog, fix_env)
        inner_env = dict(fix_env)
        inner_env[str(rel_const.value)] = schema  # type: ignore[union-attr]
        new_body, __ = _typecheck(body, catalog, inner_env, stamp)
        new_term = mk_fun("FIX", [rel_const, new_body])
    elif name not in ops.LERA_OPERATORS:
        raise TypeCheckError(f"unknown LERA operator {name!r}")
    else:
        # every other operator: type the relation operands, put them
        # back where they were, normalise the expressions scoped over
        # their schemas, and ask the operator's typing rule with the
        # schemas held
        typed = [_typecheck(r, catalog, fix_env, stamp)
                 for r in ops.relation_inputs(term)]
        schemas = [schema for __, schema in typed]
        inputs = tuple(schemas)
        args = ops.args_with_inputs(term, [new for new, __ in typed])
        for i in ops.SCOPED_ARGS.get(name, ()):
            if is_fun(args[i], "LIST"):  # the projection items
                args[i] = mk_fun("LIST", [
                    _checked(item, inputs, catalog, stamp)
                    for item in args[i].args  # type: ignore[union-attr]
                ])
            else:
                args[i] = _checked(args[i], inputs, catalog, stamp)
        new_term = mk_fun(name, args)
        if name in ("UNION", "INTERSECTION"):
            # their SET re-sorted, and merged, the typed operands: line
            # the schemas up with the operands the new term really has
            schema_by_operand = dict(typed)
            schemas = [schema_by_operand[r]
                       for r in ops.relation_inputs(new_term)]
        schema = operator_schema(new_term, schemas, catalog)
    if new_term is term and stamp is not None:
        term._derived = (stamp, scope, schema, True)
    return new_term, schema


def _checked(expr: Term, scope: tuple, catalog, stamp) -> Term:
    """The normal form of ``expr``, which must type throughout."""
    normal, found = normal_form(expr, scope, catalog, stamp)
    if isinstance(found, Exception):
        raise found
    return normal


def normalize_expression(expr: Term, input_schemas: list[Schema],
                         catalog) -> Term:
    """Rewrite attribute-as-function calls to PROJECT / VALUE chains."""
    return normal_form(expr, tuple(input_schemas), catalog,
                       stamp_of(catalog), typed=False)[0]
