"""In-memory relation storage.

The EDS server stored relations on a parallel store; the rewriter only
needs a substrate that can *execute* LERA plans so rewriting effects are
measurable, so relations are lists of tuples in memory.  Value coercion
turns plain Python containers into the ADT runtime values declared by
the relation schema.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from repro.adt.types import (AtomicType, CollectionType, DataType,
                             EnumerationType, ObjectType, TupleType)
from repro.adt.values import (COLLECTION_CTORS, BagValue, CollectionValue,
                              ObjectRef, ObjectStore, TupleValue)
from repro.errors import ValueError_
from repro.lera.schema import Schema

__all__ = ["BaseRelation", "VirtualRelation", "coerce_value", "coerce_row"]

_MISSING = object()

def coerce_value(value: Any, dtype: DataType, objects: ObjectStore) -> Any:
    """Convert a plain Python value to the runtime value for ``dtype``.

    Lists/tuples/sets become the declared collection ADT, dicts become
    tuple values, strings are checked against enumerations, and object
    references are validated against the store.
    """
    if isinstance(dtype, CollectionType):
        if isinstance(value, CollectionValue):
            elems = value.elements
        elif isinstance(value, (list, tuple, set, frozenset)):
            elems = tuple(value)
        else:
            raise ValueError_(
                f"expected a collection for {dtype.name}, got {value!r}"
            )
        ctor = COLLECTION_CTORS.get(dtype.kind, BagValue)
        return ctor(coerce_value(e, dtype.element, objects) for e in elems)

    if isinstance(dtype, TupleType):
        if isinstance(value, TupleValue):
            items = list(value.items())
        elif isinstance(value, dict):
            items = list(value.items())
        elif isinstance(value, (list, tuple)) and \
                len(value) == len(dtype.fields):
            items = list(zip(dtype.field_names, value))
        else:
            raise ValueError_(
                f"expected a tuple value for {dtype.name}, got {value!r}"
            )
        coerced = []
        for name, v in items:
            ftype = dtype.field_type(name)
            coerced.append((name, coerce_value(v, ftype, objects)))
        return TupleValue(coerced)

    if isinstance(dtype, ObjectType):
        if isinstance(value, ObjectRef):
            if value not in objects:
                raise ValueError_(f"dangling reference {value!r}")
            return value
        raise ValueError_(
            f"expected an object reference of type {dtype.name}, "
            f"got {value!r}"
        )

    if isinstance(dtype, EnumerationType):
        if not isinstance(value, str) or not dtype.contains(value):
            raise ValueError_(
                f"{value!r} is not a literal of enumeration {dtype.name} "
                f"{list(dtype.literals)}"
            )
        return value

    if isinstance(dtype, AtomicType):
        name = dtype.name
        if name == "BOOLEAN":
            if not isinstance(value, bool):
                raise ValueError_(f"expected a boolean, got {value!r}")
            return value
        if name == "INT":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError_(f"expected an int, got {value!r}")
            return value
        if name == "REAL":
            if isinstance(value, bool) or \
                    not isinstance(value, (int, float)):
                raise ValueError_(f"expected a real, got {value!r}")
            return float(value)
        if name == "NUMERIC":
            if isinstance(value, bool) or \
                    not isinstance(value, (int, float)):
                raise ValueError_(f"expected a number, got {value!r}")
            return value
        if name == "CHAR":
            if not isinstance(value, str):
                raise ValueError_(f"expected a string, got {value!r}")
            return value

    # ANY and user types without dedicated handling: pass through
    return value


def coerce_row(row: Sequence[Any], schema: Schema,
               objects: ObjectStore) -> tuple:
    if len(row) != len(schema):
        raise ValueError_(
            f"row has {len(row)} values, schema has {len(schema)} "
            f"attributes ({list(schema.names)})"
        )
    return tuple(
        coerce_value(v, schema.attr_type(i), objects)
        for i, v in enumerate(row, start=1)
    )


class BaseRelation:
    """A stored relation: a schema plus a list of tuples (bag semantics).

    ``key`` holds the declared PRIMARY KEY positions (1-based);
    uniqueness is enforced on insert, which is what makes the
    redundant-self-join elimination rule sound.

    ``index(col, build)`` is the table's access path: a hash index on
    one column, built by the evaluator's builder the first time a plan
    looks a value up and kept until the rows change.  ``version``
    counts those changes: every mutation below bumps it and drops the
    indexes, so an index is never logged or snapshotted and a
    recovered table starts without any.
    """

    def __init__(self, name: str, schema: Schema,
                 key: Sequence[int] = ()):
        self.name = name
        self.schema = schema
        self.rows: list[tuple] = []
        self.key = tuple(key)
        self._key_index: set = set()
        self.version = 0
        self._indexes: dict[int, Optional[dict]] = {}

    def _changed(self) -> None:
        self.version += 1
        self._indexes = {}

    def index(self, col: int,
              build: Callable[[list, int], Optional[dict]]
              ) -> Optional[dict]:
        """The rows by their value in column ``col`` (1-based), as
        ``build(rows, col)`` returns it -- None when the builder
        declines, which is kept as well.  A reader builds into a local
        dict and publishes it with one assignment, into the index set
        of the version it read: concurrent readers at most build twice,
        and a write in between orphans the stale index."""
        indexes = self._indexes
        index = indexes.get(col, _MISSING)
        if index is _MISSING:
            index = indexes[col] = build(self.rows, col)
        return index

    def _key_of(self, row: tuple) -> tuple:
        return tuple(row[p - 1] for p in self.key)

    def insert(self, row: Sequence[Any], objects: ObjectStore) -> tuple:
        coerced = coerce_row(row, self.schema, objects)
        if self.key:
            key_value = self._key_of(coerced)
            if key_value in self._key_index:
                raise ValueError_(
                    f"duplicate primary key {key_value!r} in "
                    f"{self.name}"
                )
            self._key_index.add(key_value)
        self.rows.append(coerced)
        self._changed()
        return coerced

    def insert_many(self, rows: Iterable[Sequence[Any]],
                    objects: ObjectStore) -> int:
        """Insert a batch atomically: every row is coerced and checked
        against the key (including duplicates *within* the batch) before
        the first mutation, so a bad row leaves the relation untouched.
        """
        staged = [coerce_row(row, self.schema, objects) for row in rows]
        if self.key:
            fresh: set = set()
            for coerced in staged:
                key_value = self._key_of(coerced)
                if key_value in self._key_index or key_value in fresh:
                    raise ValueError_(
                        f"duplicate primary key {key_value!r} in "
                        f"{self.name}"
                    )
                fresh.add(key_value)
            self._key_index |= fresh
        self.rows.extend(staged)
        self._changed()
        return len(staged)

    def replace_rows(self, new_rows: Iterable[tuple]) -> None:
        """Atomically swap in already-coerced rows (DELETE/UPDATE).

        The key index for the candidate rows is built first; a violation
        raises before either ``rows`` or the index is touched.
        """
        staged = list(new_rows)
        fresh: set = set()
        if self.key:
            for r in staged:
                key_value = self._key_of(r)
                if key_value in fresh:
                    raise ValueError_(
                        f"primary key violated in {self.name}"
                    )
                fresh.add(key_value)
        self.rows[:] = staged
        self._key_index = fresh
        self._changed()

    def restore(self, rows: list, key_index: set) -> None:
        """Put back a before-image (the undo log's rollback)."""
        self.rows[:] = rows
        self._key_index = key_index
        self._changed()

    def clear(self) -> None:
        self.rows.clear()
        self._key_index.clear()
        self._changed()

    @property
    def cardinality(self) -> int:
        return len(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"BaseRelation({self.name}, {len(self.rows)} rows)"


class VirtualRelation:
    """A read-only relation whose rows are computed on demand.

    The system catalog (``sys.*``) is built from these: ``producer`` is
    a zero-argument callable closing over live state (a metrics
    registry, the session manager, the WAL path) that returns an
    iterable of plain rows.  ``materialize`` coerces them against the
    declared schema so a virtual scan yields exactly the same runtime
    values a stored relation would -- the evaluator cannot tell the
    difference.

    Nothing here is ever stored or WAL-logged; a producer must not take
    the writer lock (it runs inside the shared side of a query), so it
    may only read structures that are safe under concurrent mutation
    (per-metric locks, snapshot-returning accessors, torn-tail-tolerant
    WAL scans).
    """

    __slots__ = ("name", "schema", "producer", "description")

    def __init__(self, name: str, schema: Schema, producer,
                 description: str = ""):
        self.name = name
        self.schema = schema
        self.producer = producer
        self.description = description

    def materialize(self, objects: ObjectStore) -> list[tuple]:
        """One consistent point-in-time batch of coerced rows."""
        return [
            coerce_row(row, self.schema, objects)
            for row in self.producer()
        ]

    def __repr__(self) -> str:
        return f"VirtualRelation({self.name})"
