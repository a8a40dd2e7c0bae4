"""Runtime values for the ESQL/LERA data model.

ESQL data is partitioned into *values* and *objects* (paper, section 2.1).
A value is an instance of an ADT; an object has a unique identifier (OID)
with a value bound to it.  Only objects may be referentially shared.

All value classes here are immutable and hashable so they can be stored in
sets and used as grouping keys.  The generic collection ADTs of Figure 1
(``set``, ``bag``, ``list``, ``array``) are represented by
:class:`SetValue`, :class:`BagValue`, :class:`ListValue` and
:class:`ArrayValue`, all subclasses of :class:`CollectionValue`, mirroring
the paper's inheritance hierarchy rooted at ``collection``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import ValueError_

__all__ = [
    "CollectionValue",
    "SetValue",
    "BagValue",
    "ListValue",
    "ArrayValue",
    "COLLECTION_CTORS",
    "TupleValue",
    "ObjectRef",
    "ObjectStore",
    "is_atomic",
    "value_repr",
]


def is_atomic(value: Any) -> bool:
    """Return True for atomic (non-constructed) runtime values."""
    return isinstance(value, (int, float, str, bool)) or value is None


class CollectionValue:
    """Abstract base of the four generic collection ADTs.

    Subclasses store their elements in ``_elems`` (a tuple) and expose the
    shared protocol of the paper's ``collection`` root type: emptiness
    testing, membership, iteration, length and conversion.
    """

    __slots__ = ("_elems", "_hash")

    kind: str = "collection"

    def __init__(self, elems: Iterable[Any]):
        self._elems = self._normalize(tuple(elems))
        self._hash: int | None = None

    @staticmethod
    def _normalize(elems: tuple) -> tuple:
        return elems

    def __iter__(self) -> Iterator[Any]:
        return iter(self._elems)

    def __len__(self) -> int:
        return len(self._elems)

    def __contains__(self, item: Any) -> bool:
        return item in self._elems

    def is_empty(self) -> bool:
        return not self._elems

    @property
    def elements(self) -> tuple:
        return self._elems

    def __eq__(self, other: Any) -> bool:
        return type(self) is type(other) and self._cmp_key() == other._cmp_key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((type(self).__name__, self._cmp_key()))
        return self._hash

    def _cmp_key(self):
        return self._elems

    def __repr__(self) -> str:
        inner = ", ".join(value_repr(e) for e in self._elems)
        return f"{self.kind}({inner})"

    # -- conversions (the paper's Convert function at collection level) ----
    def to_set(self) -> "SetValue":
        return SetValue(self._elems)

    def to_bag(self) -> "BagValue":
        return BagValue(self._elems)

    def to_list(self) -> "ListValue":
        return ListValue(self._elems)

    def to_array(self) -> "ArrayValue":
        return ArrayValue(self._elems)


def _stable_unique(elems: Iterable[Any]) -> tuple:
    """Deduplicate preserving first-occurrence order."""
    seen = set()
    out = []
    for e in elems:
        if e not in seen:
            seen.add(e)
            out.append(e)
    return tuple(out)


class SetValue(CollectionValue):
    """An unordered collection without duplicates.

    Element order is normalised away for comparison and hashing but a
    deterministic insertion order is kept for display and iteration.
    """

    __slots__ = ()
    kind = "set"

    @staticmethod
    def _normalize(elems: tuple) -> tuple:
        return _stable_unique(elems)

    def _cmp_key(self):
        return frozenset(self._elems)

    def __contains__(self, item: Any) -> bool:
        # Sets are the membership workhorse (MEMBER); keep O(n) simple scan
        # because elements may be arbitrary values -- they are hashable, so
        # use a frozenset probe for larger sets.
        if len(self._elems) > 8:
            return item in self._cmp_key()
        return item in self._elems


class BagValue(CollectionValue):
    """An unordered collection with duplicates (the ESQL default)."""

    __slots__ = ()
    kind = "bag"

    def _cmp_key(self):
        return frozenset(Counter(self._elems).items())


class ListValue(CollectionValue):
    """An ordered collection with duplicates."""

    __slots__ = ()
    kind = "list"

    def __getitem__(self, index: int) -> Any:
        return self._elems[index]

    def first(self) -> Any:
        if not self._elems:
            raise ValueError_("first() on an empty list")
        return self._elems[0]

    def last(self) -> Any:
        if not self._elems:
            raise ValueError_("last() on an empty list")
        return self._elems[-1]

    def append_element(self, item: Any) -> "ListValue":
        return ListValue(self._elems + (item,))

    def concat(self, other: "ListValue") -> "ListValue":
        return ListValue(self._elems + tuple(other))

    def sublist(self, start: int, stop: int) -> "ListValue":
        return ListValue(self._elems[start:stop])


class ArrayValue(CollectionValue):
    """A fixed-length ordered collection with positional access."""

    __slots__ = ()
    kind = "array"

    def __getitem__(self, index: int) -> Any:
        try:
            return self._elems[index]
        except IndexError as exc:
            raise ValueError_(
                f"array index {index} out of range (size {len(self)})"
            ) from exc

    def set_at(self, index: int, item: Any) -> "ArrayValue":
        if not 0 <= index < len(self._elems):
            raise ValueError_(
                f"array index {index} out of range (size {len(self)})"
            )
        elems = list(self._elems)
        elems[index] = item
        return ArrayValue(elems)


#: the generic collection ADTs of Figure 1, by their ESQL keyword
COLLECTION_CTORS = {"SET": SetValue, "BAG": BagValue, "LIST": ListValue,
                    "ARRAY": ArrayValue}


class TupleValue(Mapping):
    """An instance of the generic ``tuple`` ADT: named, typed fields.

    Field order is significant for display and positional access, mirroring
    the paper's nested-tuple attributes (an attribute name is applied as a
    function, i.e. a projection on the tuple).
    """

    __slots__ = ("_fields", "_hash")

    def __init__(self, fields: Mapping[str, Any] | Iterable[tuple[str, Any]]):
        if isinstance(fields, Mapping):
            items = tuple(fields.items())
        else:
            items = tuple(fields)
        names = [name for name, __ in items]
        if len(set(names)) != len(names):
            raise ValueError_(f"duplicate tuple field in {names}")
        self._fields = items
        self._hash: int | None = None

    def __getitem__(self, name: str) -> Any:
        for field, value in self._fields:
            if field == name:
                return value
        raise KeyError(name)

    def project(self, name: str) -> Any:
        """Attribute-as-function access (PROJECT in LERA)."""
        try:
            return self[name]
        except KeyError:
            raise ValueError_(
                f"tuple has no field {name!r}; fields are "
                f"{[f for f, __ in self._fields]}"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return (name for name, __ in self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(name for name, __ in self._fields)

    @property
    def field_values(self) -> tuple:
        return tuple(value for __, value in self._fields)

    def replace(self, name: str, value: Any) -> "TupleValue":
        if name not in self.field_names:
            raise ValueError_(f"tuple has no field {name!r}")
        return TupleValue(
            tuple((f, value if f == name else v) for f, v in self._fields)
        )

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, TupleValue) and self._fields == other._fields

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._fields)
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}: {value_repr(value)}" for name, value in self._fields
        )
        return f"tuple({inner})"


class ObjectRef:
    """A reference to an object: an OID plus the object's type name.

    The value bound to the OID lives in an :class:`ObjectStore`; going from
    a reference to its value is the VALUE built-in function.
    """

    __slots__ = ("oid", "type_name")

    def __init__(self, oid: int, type_name: str):
        self.oid = oid
        self.type_name = type_name

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, ObjectRef) and self.oid == other.oid

    def __hash__(self) -> int:
        return hash(("oid", self.oid))

    def __repr__(self) -> str:
        return f"<{self.type_name}:{self.oid}>"


class ObjectStore:
    """Maps OIDs to object values; the object manager substrate.

    The EDS server would persist objects; here an in-memory dictionary is
    enough for the rewriter and its benchmarks (the rewriter never touches
    object *state*, only references).
    """

    def __init__(self):
        self._objects: dict[int, Any] = {}
        self._types: dict[int, str] = {}
        self._next_oid = 1

    def create(self, type_name: str, value: Any) -> ObjectRef:
        """Allocate a fresh OID bound to ``value``."""
        oid = self._next_oid
        self._next_oid += 1
        self._objects[oid] = value
        self._types[oid] = type_name
        return ObjectRef(oid, type_name)

    # -- statement rollback and durability hooks ---------------------------
    def mark(self) -> int:
        """The next OID to be allocated; pass to :meth:`rewind` to undo
        every creation made after the mark (statement rollback)."""
        return self._next_oid

    def rewind(self, mark: int) -> None:
        """Discard objects created at or after ``mark`` and rewind the
        OID counter, so a rolled-back statement leaves no trace (and a
        WAL replay re-allocates identical OIDs)."""
        for oid in [o for o in self._objects if o >= mark]:
            del self._objects[oid]
            del self._types[oid]
        self._next_oid = mark

    def items(self) -> list[tuple[int, str, Any]]:
        """Every live object as ``(oid, type_name, value)``."""
        return [
            (oid, self._types[oid], value)
            for oid, value in sorted(self._objects.items())
        ]

    def load(self, items: Iterable[tuple[int, str, Any]],
             next_oid: int) -> None:
        """Replace the whole store (snapshot restore)."""
        self._objects = {oid: value for oid, __, value in items}
        self._types = {oid: type_name for oid, type_name, __ in items}
        self._next_oid = next_oid

    def value_of(self, ref: ObjectRef) -> Any:
        """Dereference (the VALUE built-in)."""
        try:
            return self._objects[ref.oid]
        except KeyError:
            raise ValueError_(f"dangling object reference {ref!r}") from None

    def update(self, ref: ObjectRef, value: Any) -> None:
        if ref.oid not in self._objects:
            raise ValueError_(f"dangling object reference {ref!r}")
        self._objects[ref.oid] = value

    def type_of(self, ref: ObjectRef) -> str:
        try:
            return self._types[ref.oid]
        except KeyError:
            raise ValueError_(f"dangling object reference {ref!r}") from None

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, ref: ObjectRef) -> bool:
        return isinstance(ref, ObjectRef) and ref.oid in self._objects


def value_repr(value: Any) -> str:
    """A compact, stable display form for any runtime value."""
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    return repr(value)
