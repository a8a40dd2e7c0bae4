"""Grammar-driven random ESQL query generation.

The generator stays inside the grammar the parser and translator
support (IN / EXISTS subqueries only as top-level WHERE conjuncts,
GROUP BY over plain columns, UNION of compatible selects) and is
*biased* toward the shapes the rewrite rules trigger on:

* multi-table FROM lists with equality join predicates (merging,
  pushing, self-join elimination);
* DISTINCT -- including DISTINCT over a declared key (the redundant-
  DISTINCT anti-pattern);
* OR chains of equalities over one column (the OR-chain -> IN
  anti-pattern) and IN lists;
* EXISTS / NOT EXISTS / IN (SELECT ...) subqueries, sometimes with a
  DISTINCT inside (semijoin flattening + EXISTS simplification);
* double negation and negated connectives (NNF rules);
* trivial predicates: ``x + 0``, ``x * 1``, reflexive comparisons,
  subsumed bounds (the trivial-predicate-folding anti-pattern);
* UNION branches over the same projection (union factoring);
* views -- plain, stacked on another view, UNION and recursive
  (:func:`random_views`) -- read like tables, so a query projects
  narrower than its view and joins a view with a base table (merging
  and pushing through view bodies; the bag/set boundary of a UNION
  view is where ``search_union_push`` went wrong);
* a ``SET OF INT`` column equated with an integer column of the other
  FROM entry (:func:`_set_column_bait`): ``=`` broadcasts over a
  collection, so a hash probe keyed on either side must decline.

A query is represented structurally (:class:`QuerySpec`) so the
shrinker can drop conjuncts / items / features instead of fumbling
with text, and rendered with :meth:`QuerySpec.sql`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from random import Random
from typing import Optional, Sequence

from repro.qa.schema_gen import (Case, TableSpec, ViewSpec, random_schema,
                                 render_const, with_set_column)

__all__ = ["QuerySpec", "random_query", "random_views", "random_case"]

_INT_CONSTS = tuple(range(0, 7))
_CHAR_CONSTS = ("a", "b", "c", "d", "e")


@dataclass(frozen=True)
class QuerySpec:
    """A structured SELECT: the unit the shrinker mutates."""

    select: tuple[str, ...]
    tables: tuple[str, ...]
    where: tuple[str, ...] = ()
    distinct: bool = False
    group_by: tuple[str, ...] = ()
    union: Optional["QuerySpec"] = None

    def sql(self) -> str:
        head = "SELECT DISTINCT" if self.distinct else "SELECT"
        text = (f"{head} {', '.join(self.select)} "
                f"FROM {', '.join(self.tables)}")
        if self.where:
            text += " WHERE " + " AND ".join(self.where)
        if self.group_by:
            text += " GROUP BY " + ", ".join(self.group_by)
        if self.union is not None:
            text += " UNION " + self.union.sql()
        return text


class _Columns:
    """Typed column pool of the tables a query draws from."""

    def __init__(self, tables: Sequence[TableSpec]):
        self.by_table = {t.name: t for t in tables}
        self.all: list[tuple[str, str]] = []  # (column, type)
        for t in tables:
            self.all.extend(t.columns)

    def of(self, names: Sequence[str]) -> list[tuple[str, str]]:
        out: list[tuple[str, str]] = []
        for name in names:
            out.extend(self.by_table[name].columns)
        return out


def _const(rng: Random, col_type: str) -> str:
    if col_type == "CHAR":
        return render_const(rng.choice(_CHAR_CONSTS), "CHAR")
    return str(rng.choice(_INT_CONSTS))


def _numericish(cols: Sequence[tuple[str, str]]) -> list[tuple[str, str]]:
    return [(n, t) for n, t in cols if t != "CHAR"]


def _kind(col_type: str) -> str:
    """Comparable columns share a kind: the numeric types, or CHAR."""
    return "CHAR" if col_type == "CHAR" else "NUM"


# -- conjunct builders -------------------------------------------------------
# each takes (rng, cols, schema, outer_tables) and returns a conjunct
# string, or None when its preconditions do not hold for this draw

def _cmp_const(rng, cols, schema, outer):
    name, col_type = rng.choice(cols)
    op = rng.choice(["=", "=", ">", "<", ">=", "<=", "<>"])
    if col_type == "CHAR" and op not in ("=", "<>"):
        op = "="
    return f"{name} {op} {_const(rng, col_type)}"


def _col_eq_col(rng, cols, schema, outer):
    same_type = {}
    for name, col_type in cols:
        same_type.setdefault(_kind(col_type), []).append(name)
    pools = [p for p in same_type.values() if len(p) >= 2]
    if not pools:
        return None
    pool = rng.choice(pools)
    a, b = rng.sample(pool, 2)
    return f"{a} = {b}"


def _or_chain(rng, cols, schema, outer):
    name, col_type = rng.choice(cols)
    arms = rng.randint(2, 4)
    consts = [_const(rng, col_type) for __ in range(arms)]
    chain = " OR ".join(f"{name} = {c}" for c in consts)
    return f"({chain})"


def _or_mixed(rng, cols, schema, outer):
    (a, at), (b, bt) = rng.choice(cols), rng.choice(cols)
    return (f"({a} = {_const(rng, at)} OR "
            f"{b} = {_const(rng, bt)})")


def _in_list(rng, cols, schema, outer):
    name, col_type = rng.choice(cols)
    values = ", ".join(
        _const(rng, col_type) for __ in range(rng.randint(1, 4))
    )
    negated = "NOT " if rng.random() < 0.3 else ""
    return f"{name} {negated}IN ({values})"


def _double_negation(rng, cols, schema, outer):
    inner = _cmp_const(rng, cols, schema, outer)
    return f"NOT (NOT ({inner}))"


def _negated_connective(rng, cols, schema, outer):
    a = _cmp_const(rng, cols, schema, outer)
    b = _cmp_const(rng, cols, schema, outer)
    op = rng.choice(["AND", "OR"])
    return f"NOT ({a} {op} {b})"


def _trivial(rng, cols, schema, outer):
    numeric = _numericish(cols)
    if not numeric:
        return None
    name, col_type = rng.choice(numeric)
    k = _const(rng, col_type)
    return rng.choice([
        f"{name} + 0 = {k}",
        f"{name} * 1 > {k}",
        f"{name} >= {name}",
        f"({name} > {k} OR {name} >= {k})",
        f"{name} > {k} AND {name} >= {k}",
    ])


def _subquery(rng, cols, schema, outer):
    """EXISTS / NOT EXISTS / IN (SELECT ...) over a non-outer table."""
    inner_pool = [t for t in schema if t.name not in outer]
    if not inner_pool:
        return None
    inner = rng.choice(inner_pool)
    inner_cols = list(inner.columns)
    probe_name, probe_type = rng.choice(inner_cols)
    sub_where = []
    # a correlation predicate most of the time, on matching types
    outer_match = [(n, t) for n, t in cols
                   if _kind(t) == _kind(probe_type)]
    if outer_match and rng.random() < 0.8:
        outer_col, __ = rng.choice(outer_match)
        sub_where.append(f"{probe_name} = {outer_col}")
    if rng.random() < 0.5:
        extra_name, extra_type = rng.choice(inner_cols)
        sub_where.append(
            f"{extra_name} {rng.choice(['=', '>', '<>'])} "
            f"{_const(rng, extra_type)}"
            if extra_type != "CHAR" else
            f"{extra_name} = {_const(rng, extra_type)}"
        )
    distinct = "DISTINCT " if rng.random() < 0.3 else ""
    sub = f"SELECT {distinct}{probe_name} FROM {inner.name}"
    if sub_where:
        sub += " WHERE " + " AND ".join(sub_where)
    shape = rng.random()
    if shape < 0.4:
        return f"EXISTS ({sub})"
    if shape < 0.6:
        return f"NOT EXISTS ({sub})"
    if not outer_match:
        return f"EXISTS ({sub})"
    member_col, __ = rng.choice(outer_match)
    negated = "NOT " if shape < 0.75 else ""
    return f"{member_col} {negated}IN ({sub})"


# (weight, builder); subqueries weighted up -- they exercise the
# flattening + semijoin machinery, historically the richest bug surface
_CONJUNCTS = (
    (4, _cmp_const),
    (3, _col_eq_col),
    (3, _or_chain),
    (2, _or_mixed),
    (3, _in_list),
    (2, _double_negation),
    (2, _negated_connective),
    (2, _trivial),
    (4, _subquery),
)
_TOTAL_WEIGHT = sum(w for w, __ in _CONJUNCTS)


def _pick_conjunct(rng: Random, cols, schema, outer) -> Optional[str]:
    point = rng.random() * _TOTAL_WEIGHT
    for weight, builder in _CONJUNCTS:
        point -= weight
        if point <= 0:
            return builder(rng, cols, schema, outer)
    return _cmp_const(rng, cols, schema, outer)


def _select_items(rng: Random, tables: Sequence[TableSpec],
                  columns: _Columns) -> tuple[str, ...]:
    """Random projection; biased to sometimes carry every key column
    (so DISTINCT over it is redundant) and to sometimes wrap a trivial
    arithmetic anti-pattern around a numeric column."""
    pool = columns.of([t.name for t in tables])
    if rng.random() < 0.4:
        # keys-first projection: all declared keys plus extras
        items = [n for t in tables for n in t.key]
        extras = [n for n, __ in pool if n not in items]
        rng.shuffle(extras)
        items.extend(extras[:rng.randint(0, 2)])
        if not items:
            items = [pool[0][0]]
    else:
        count = rng.randint(1, min(3, len(pool)))
        items = [n for n, __ in rng.sample(pool, count)]
    if rng.random() < 0.15:
        numeric = [n for n, t in pool if t != "CHAR" and n in items]
        if numeric:
            victim = rng.choice(numeric)
            items[items.index(victim)] = rng.choice(
                [f"{victim} + 0", f"{victim} * 1"]
            )
    return tuple(items)


# -- views ---------------------------------------------------------------------

def _view_filter(rng: Random, cols) -> str:
    if rng.random() < 0.5:
        return ""
    return " WHERE " + _cmp_const(rng, cols, (), ())


def _plain_body(rng: Random, source):
    """A filter-and-project over ``source`` (a table, or an earlier
    view: the stacked case); at least two columns survive so a query
    can still project narrower."""
    count = rng.randint(2, len(source.columns))
    picked = sorted(rng.sample(range(len(source.columns)), count))
    cols = [source.columns[i] for i in picked]
    body = (f"SELECT {', '.join(n for n, __ in cols)} "
            f"FROM {source.name}{_view_filter(rng, source.columns)}")
    return cols, body


def _union_body(rng: Random, sources):
    """Two branches under a set UNION: the second reads another source
    when it has a column of the right kind at every position, else the
    first source again under a different filter."""
    first = rng.choice(sources)
    cols, left = _plain_body(rng, first)
    second = rng.choice(sources)
    twin = []
    for __, col_type in cols:
        pool = [n for n, t in second.columns
                if _kind(t) == _kind(col_type) and n not in twin]
        if not pool:
            second, twin = first, [n for n, __ in cols]
            break
        twin.append(rng.choice(pool))
    right = (f"SELECT {', '.join(twin)} "
             f"FROM {second.name}{_view_filter(rng, second.columns)}")
    return cols, f"{left} UNION {right}"


def _recursive_body(rng: Random, name: str, sources):
    """Transitive closure over two numeric columns of a base table
    (the REACH shape of Figure 5); None when no table has two."""
    edges = [t for t in sources if isinstance(t, TableSpec)
             and len(_numericish(t.columns)) >= 2]
    if not edges:
        return None
    table = rng.choice(edges)
    (src, src_type), (dst, dst_type) = rng.sample(
        _numericish(table.columns), 2)
    body = (f"( SELECT {src}, {dst} FROM {table.name} UNION "
            f"SELECT {name}C0, {dst} FROM {name}, {table.name} "
            f"WHERE {name}C1 = {src} )")
    return [(src, src_type), (dst, dst_type)], body


def random_views(rng: Random,
                 schema: Sequence[TableSpec]) -> tuple[ViewSpec, ...]:
    """Zero to two views over ``schema`` (half the cases get none).

    View ``Vi`` names its columns ``ViC0, ViC1, ...``, so column names
    stay globally unique and queries never need to qualify."""
    views: list[ViewSpec] = []
    for index in range(rng.choice((0, 0, 1, 2))):
        name = f"V{index}"
        sources = list(schema) + views
        shape = rng.random()
        built = None
        if shape < 0.2:
            built = _recursive_body(rng, name, sources)
        elif shape < 0.6:
            built = _union_body(rng, sources)
        if built is None:
            # plain; over an earlier view this is the stacked case
            built = _plain_body(rng, rng.choice(views or sources))
        cols, body = built
        views.append(ViewSpec(
            name=name,
            columns=tuple((f"{name}C{i}", col_type)
                          for i, (__, col_type) in enumerate(cols)),
            body=body,
        ))
    return tuple(views)


def random_query(rng: Random,
                 schema: Sequence[TableSpec]) -> QuerySpec:
    """One random SELECT over ``schema`` -- tables and views alike
    (see the module docstring for the shape bias)."""
    columns = _Columns(schema)
    n_from = 1 if len(schema) == 1 or rng.random() < 0.5 else 2
    from_tables = tuple(
        t.name for t in rng.sample(list(schema), n_from)
    )
    cols = columns.of(from_tables)

    # grouping query: single table, no distinct, COUNT aggregate
    if n_from == 1 and rng.random() < 0.1:
        table = columns.by_table[from_tables[0]]
        group_col = table.columns[0][0]
        agg_col = table.columns[-1][0]
        where = []
        if rng.random() < 0.6:
            conjunct = _cmp_const(rng, cols, schema, from_tables)
            where.append(conjunct)
        return QuerySpec(
            select=(group_col, f"COUNT({agg_col})"),
            tables=from_tables,
            where=tuple(where),
            group_by=(group_col,),
        )

    where: list[str] = []
    # a join predicate first when reading two tables (head columns are
    # always integers, so this is always possible)
    if n_from == 2 and rng.random() < 0.8:
        heads = [columns.by_table[name].columns[0][0]
                 for name in from_tables]
        where.append(f"{heads[0]} = {heads[1]}")
    for __ in range(rng.randint(0, 2)):
        conjunct = _pick_conjunct(rng, cols, schema, from_tables)
        if conjunct:
            where.append(conjunct)

    spec = QuerySpec(
        select=_select_items(
            rng, [columns.by_table[n] for n in from_tables], columns
        ),
        tables=from_tables,
        where=tuple(where),
        distinct=rng.random() < 0.4,
    )

    # a UNION twin over the same projection (union factoring feed)
    if rng.random() < 0.15:
        twin_where: list[str] = []
        for __ in range(rng.randint(0, 2)):
            conjunct = _pick_conjunct(rng, cols, schema, from_tables)
            if conjunct:
                twin_where.append(conjunct)
        spec = replace(spec, union=QuerySpec(
            select=spec.select,
            tables=spec.tables,
            where=tuple(twin_where),
        ))
    return spec


def _set_column_bait(rng: Random, schema, views,
                     spec: QuerySpec) -> tuple[tuple, QuerySpec]:
    """One base table gains a ``SET OF INT`` column and the query an
    equality between it and a numeric column, of another FROM entry
    wherever there is one to read (the equi-join shape a hash probe
    would pick).  The partner is a column no other conjunct mentions:
    the Figure 11 / 12 rules read ``=`` as an equivalence, which it is
    not over a collection (ROADMAP item 13), and this bait is for the
    engine's probe, not for them."""
    schema, table, name = with_set_column(rng, schema)
    readers = list(spec.tables)
    if spec.group_by or (table.name not in readers and len(readers) > 1):
        return schema, spec  # the column is there; this query passes it by
    if len(readers) == 1:
        # a second FROM entry to equate across: the table itself, or
        # any other relation when the query already reads the table
        joinable = ([table.name] if table.name not in readers else
                    [t.name for t in schema + views if t.name != table.name])
        if joinable:
            readers.insert(rng.randrange(2), rng.choice(joinable))
    columns = _Columns(schema + views)
    mentioned = set(re.findall(r"\w+", " ".join(spec.where)))
    partners = [n for reader in readers if reader != table.name
                for n, t in _numericish(columns.of([reader]))
                if n not in mentioned]
    if not partners:
        return schema, spec
    partner = rng.choice(partners)
    sides = [name, partner]
    rng.shuffle(sides)
    return schema, replace(spec, tables=tuple(readers),
                           where=spec.where + (" = ".join(sides),))


def random_case(rng: Random, max_tables: int = 3,
                max_rows: int = 10) -> tuple[Case, QuerySpec]:
    """One full differential-testing input: schema + data + query."""
    schema = random_schema(rng, max_tables=max_tables,
                           max_rows=max_rows)
    views = random_views(rng, schema)
    spec = random_query(rng, schema + views)
    # drawn last: every case of a seed keeps the tables, views and
    # query it had before collection columns were generated
    if rng.random() < 0.3:
        schema, spec = _set_column_bait(rng, schema, views, spec)
    return Case(tables=schema, views=views, query=spec.sql()), spec
