"""Terms: the uniform representation rewritten by the optimizer.

The paper's rule language is a *term rewriting* formalism (section 4.1):
everything the rewriter touches -- LERA operators, qualifications, ADT
function calls -- is a functional expression.  This module defines the
term algebra:

* :class:`Fun` -- a function application ``F(t1, ..., tn)``.  LERA
  operators (``SEARCH``, ``UNION``, ``FIX``, ...), ADT functions
  (``MEMBER``, ``VALUE``, ...), Boolean connectives and the structural
  constructors ``LIST`` / ``SET`` / ``TUPLE`` are all ``Fun`` terms.
* :class:`Var` -- an ordinary variable (``x``); matches any single term.
* :class:`CollVar` -- a collection variable (``x*``); matches a
  sub-sequence (inside ordered argument lists) or a sub-multiset (inside
  ``SET`` / ``AND`` / ``OR``).
* :class:`Const` -- a literal: int, real, string, boolean or *symbol*
  (a bare upper-case identifier, used for relation names, type names and
  enumeration-ish atoms -- the PROLOG-atom role).
* :class:`AttrRef` -- a positional attribute reference ``#i.j`` (the
  paper writes ``1.2``): attribute ``j`` of the ``i``-th input relation.

Normalising smart constructors
------------------------------

``AND`` / ``OR`` are treated as associative-commutative-idempotent: the
:func:`mk_fun` constructor flattens nested occurrences, removes duplicate
operands and sorts operands into a canonical order.  ``SET`` arguments are
sorted too.  This gives the rewrite engine AC-matching and -- crucially --
a syntactic equality that is stable under commutation, so saturation
detection (a rule application that reproduces the same term is a no-op)
terminates expanding rules such as the transitivity rule of Figure 11.

``APPEND`` and ``SET_UNION`` are the *constructor-level* list/set splicing
functions used in the paper's merging rules (Figure 7): when their
arguments are ``LIST`` / ``SET`` terms or collection-variable bindings
they are evaluated away at construction time.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence, Union

from repro.errors import TermError

__all__ = [
    "Term", "Fun", "Var", "CollVar", "Const", "AttrRef", "Seq",
    "mk_fun", "conj", "disj", "TRUE", "FALSE",
    "sym", "num", "string", "boolean",
    "term_sort_key", "AC_FUNS", "FUNVARS", "NORMALISED_FUNS", "splice",
    "is_fun", "conjuncts",
    "disjuncts",
    "subterms", "walk", "replace_at", "term_size", "term_depth",
    "variables_of",
    "collvars_of", "is_ground", "mentions",
]

# Function symbols matched/normalised as unordered multisets.
AC_FUNS = frozenset({"SET", "AND", "OR"})

# Generic function symbols of the Figure 6 grammar: in a pattern they
# match any function name of the same arity (second-order matching),
# binding the name; used by the Figure 10/11 semantic rules.
FUNVARS = frozenset({"F", "G", "H", "I", "J", "K"})

# Commutative comparisons get canonically ordered arguments so that
# semantic rules need not enumerate orientations.
_COMMUTATIVE_BINOPS = frozenset({"=", "<>"})

# Constructor-level splicers (evaluated during term construction).
_SPLICERS = {"APPEND": "LIST", "SET_UNION": "SET"}

# The function symbols mk_fun does more for than splice collection
# bindings in: a node under any other name can be built directly.
NORMALISED_FUNS = AC_FUNS | _COMMUTATIVE_BINOPS | frozenset(_SPLICERS)


class Term:
    """Abstract base class of all terms; immutable and hashable."""

    __slots__ = ("_hash",)

    def __eq__(self, other: Any) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError

    def __hash__(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    def __repr__(self) -> str:
        # late import to avoid a cycle; printer handles all term classes
        from repro.terms.printer import term_to_str
        return term_to_str(self)


class Var(Term):
    """An ordinary rule variable; matches exactly one term."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("var", name))

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash


class CollVar(Term):
    """A collection variable ``x*``; matches a sequence of terms."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name.rstrip("*")
        self._hash = hash(("collvar", self.name))

    @property
    def display(self) -> str:
        return self.name + "*"

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, CollVar) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash


class Const(Term):
    """A literal constant.

    ``kind`` is one of ``int``, ``real``, ``string``, ``bool`` or
    ``symbol``.  Symbols carry relation names, type names and other bare
    identifiers.
    """

    __slots__ = ("value", "kind")

    KINDS = ("int", "real", "string", "bool", "symbol")

    def __init__(self, value: Any, kind: str):
        if kind not in self.KINDS:
            raise TermError(f"bad constant kind {kind!r}")
        self.value = value
        self.kind = kind
        self._hash = hash(("const", kind, value))

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, Const) and self.kind == other.kind
                and self.value == other.value)

    def __hash__(self) -> int:
        return self._hash


class AttrRef(Term):
    """Positional attribute reference ``#rel.pos`` (both 1-based)."""

    __slots__ = ("rel", "pos")

    def __init__(self, rel: int, pos: int):
        if rel < 1 or pos < 1:
            raise TermError(f"attribute reference #{rel}.{pos} must be 1-based")
        self.rel = rel
        self.pos = pos
        self._hash = hash(("attr", rel, pos))

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, AttrRef) and self.rel == other.rel
                and self.pos == other.pos)

    def __hash__(self) -> int:
        return self._hash


# Every node of a scanned plan ends up with its symbol set, and most of
# them hold one of a few dozen: equal sets are one object.
_SYMBOL_SETS: dict = {}
_SYMBOL_SETS_KEPT = 4096


class Fun(Term):
    """A function application.  Use :func:`mk_fun` to build instances."""

    __slots__ = ("name", "args", "_symbols", "_mentions", "_ground")

    def __init__(self, name: str, args: tuple):
        # Raw constructor: no normalisation.  Library code should call
        # mk_fun; this is exposed for the matcher, which must be able to
        # build intermediate non-normalised nodes.
        self.name = name
        self.args = args
        self._hash = hash(("fun", name, args))
        self._symbols = None
        self._mentions = None
        self._ground = None

    def __eq__(self, other: Any) -> bool:
        # Hashes first: they are built bottom-up at construction, so
        # unequal terms part here.  Equal ones are walked with an
        # explicit stack -- a plan is as deep as its stacked views, and
        # recursing through tuple comparison would cap that depth at a
        # third of the interpreter's recursion limit.
        if self is other:
            return True
        if (not isinstance(other, Fun) or self._hash != other._hash
                or self.name != other.name
                or len(self.args) != len(other.args)):
            return False
        stack = [(self.args, other.args)]
        while stack:
            for a, b in zip(*stack.pop()):
                if a is b:
                    continue
                if not isinstance(a, Fun):
                    if a != b:
                        return False
                elif (not isinstance(b, Fun) or a._hash != b._hash
                        or a.name != b.name
                        or len(a.args) != len(b.args)):
                    return False
                else:
                    stack.append((a.args, b.args))
        return True

    def __hash__(self) -> int:
        return self._hash

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def symbols(self) -> frozenset:
        """The function symbols strictly below this node (computed on
        first use).  A pattern whose fixed inner symbols are not all
        in here cannot match this term, whatever the bindings."""
        found = self._symbols
        if found is None:
            below: set = set()
            for a in self.args:
                if isinstance(a, Fun):
                    below.add(a.name)
                    below |= a.symbols
            if len(_SYMBOL_SETS) >= _SYMBOL_SETS_KEPT:
                _SYMBOL_SETS.clear()
            found = frozenset(below)
            found = self._symbols = _SYMBOL_SETS.setdefault(found, found)
        return found


_NO_MENTIONS: dict = {}


def mentions(term: Term) -> dict:
    """How often ``term`` mentions each symbol constant (relation
    names above all): ``{name: occurrences}``, the term itself
    included; read-only.  Like :attr:`Fun.symbols`, computed once per
    node, on first use."""
    if isinstance(term, Fun):
        found = term._mentions
        if found is None:
            found = {}
            for a in term.args:
                for name, n in mentions(a).items():
                    found[name] = found.get(name, 0) + n
            found = term._mentions = found or _NO_MENTIONS
        return found
    if isinstance(term, Const) and term.kind == "symbol":
        return {str(term.value): 1}
    return _NO_MENTIONS


class Seq:
    """A binding value for a collection variable: a sequence of terms.

    Not itself a term -- it only exists inside bindings and is spliced
    into argument lists by :func:`mk_fun` during instantiation.
    """

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Term]):
        self.items = tuple(items)

    def __iter__(self) -> Iterator[Term]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Seq) and self.items == other.items

    def __hash__(self) -> int:
        return hash(("seq", self.items))

    def __repr__(self) -> str:
        return "Seq(" + ", ".join(repr(t) for t in self.items) + ")"


TRUE = Const(True, "bool")
FALSE = Const(False, "bool")


def sym(name: str) -> Const:
    """A symbol constant (relation / type / atom name)."""
    return Const(name, "symbol")


def num(value: Union[int, float]) -> Const:
    if isinstance(value, bool):
        return boolean(value)
    if isinstance(value, int):
        return Const(value, "int")
    return Const(float(value), "real")


def string(value: str) -> Const:
    return Const(value, "string")


def boolean(value: bool) -> Const:
    return TRUE if value else FALSE


# ---------------------------------------------------------------------------
# canonical ordering
# ---------------------------------------------------------------------------

_KIND_RANK = {"bool": 0, "int": 1, "real": 2, "string": 3, "symbol": 4}


def term_sort_key(term: Union[Term, Seq]) -> tuple:
    """A deterministic total order on terms (used to canonicalise AC args)."""
    if isinstance(term, Const):
        return (0, _KIND_RANK[term.kind], str(term.value))
    if isinstance(term, AttrRef):
        return (1, term.rel, term.pos)
    if isinstance(term, Var):
        return (2, term.name)
    if isinstance(term, CollVar):
        return (3, term.name)
    if isinstance(term, Fun):
        return (4, term.name, len(term.args),
                tuple(map(term_sort_key, term.args)))
    if isinstance(term, Seq):
        return (5, tuple(map(term_sort_key, term.items)))
    raise TermError(f"cannot order {term!r}")


def splice(args: Sequence[Union[Term, Seq]]) -> tuple:
    """Expand Seq bindings in an argument list."""
    out: list[Term] = []
    for a in args:
        if isinstance(a, Seq):
            out.extend(a.items)
        else:
            out.append(a)
    return tuple(out)


def _flatten(name: str, args: Iterable[Term]) -> list[Term]:
    out: list[Term] = []
    for a in args:
        if isinstance(a, Fun) and a.name == name:
            out.extend(a.args)
        else:
            out.append(a)
    return out


def _dedupe_sorted(args: Iterable[Term]) -> tuple:
    uniq = dict.fromkeys(args)
    if len(uniq) < 2:
        return tuple(uniq)
    return tuple(sorted(uniq, key=term_sort_key))


def mk_fun(name: str, args: Iterable[Union[Term, Seq]]) -> Term:
    """The normalising term constructor.

    * splices collection-variable bindings (:class:`Seq`) into the
      argument list of any function;
    * evaluates the constructor-level ``APPEND`` / ``SET_UNION`` splicers
      when their arguments are structural lists/sets;
    * flattens, deduplicates and canonically sorts ``AND`` / ``OR``
      (returning ``TRUE`` / ``FALSE`` for the empty case and the sole
      operand for the singleton case) and sorts ``SET`` arguments.
    """
    name = name.upper()
    raw = tuple(args)

    if name in _SPLICERS and any(
        isinstance(a, Seq)
        or (isinstance(a, Fun) and a.name in ("LIST", "SET"))
        for a in raw
    ):
        target = _SPLICERS[name]
        out: list[Term] = []
        for a in raw:
            if isinstance(a, Seq):
                out.extend(a.items)
            elif isinstance(a, Fun) and a.name in ("LIST", "SET"):
                out.extend(a.args)
            else:
                out.append(a)
        return mk_fun(target, out)

    spliced = splice(raw)

    if name == "AND":
        flat = _flatten("AND", spliced)
        flat = [a for a in flat if a != TRUE]
        ordered = _dedupe_sorted(flat)
        if not ordered:
            return TRUE
        if len(ordered) == 1 and not isinstance(ordered[0], CollVar):
            return ordered[0]
        return Fun("AND", ordered)

    if name == "OR":
        flat = _flatten("OR", spliced)
        flat = [a for a in flat if a != FALSE]
        ordered = _dedupe_sorted(flat)
        if not ordered:
            return FALSE
        if len(ordered) == 1 and not isinstance(ordered[0], CollVar):
            return ordered[0]
        return Fun("OR", ordered)

    if name == "SET":
        return Fun("SET", _dedupe_sorted(spliced))

    if name in _COMMUTATIVE_BINOPS and len(spliced) == 2:
        ordered_pair = sorted(spliced, key=term_sort_key)
        return Fun(name, tuple(ordered_pair))

    return Fun(name, spliced)


def conj(args: Iterable[Term]) -> Term:
    """Build the conjunction of ``args`` (normalised)."""
    return mk_fun("AND", args)


def disj(args: Iterable[Term]) -> Term:
    """Build the disjunction of ``args`` (normalised)."""
    return mk_fun("OR", args)


def is_fun(term: Term, name: str) -> bool:
    return isinstance(term, Fun) and term.name == name.upper()


def conjuncts(term: Term) -> tuple[Term, ...]:
    """The operands of a conjunction (a non-AND term is one conjunct)."""
    if is_fun(term, "AND"):
        return term.args  # type: ignore[union-attr]
    if term == TRUE:
        return ()
    return (term,)


def disjuncts(term: Term) -> tuple[Term, ...]:
    if is_fun(term, "OR"):
        return term.args  # type: ignore[union-attr]
    if term == FALSE:
        return ()
    return (term,)


# ---------------------------------------------------------------------------
# traversal
# ---------------------------------------------------------------------------

def walk(term: Term) -> Iterator[Term]:
    """Pre-order traversal of every subterm (including the term itself)."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Fun):
            stack.extend(reversed(t.args))


def subterms(term: Term,
             path: tuple = ()) -> Iterator[tuple[tuple, Term]]:
    """Pre-order traversal yielding ``(path, subterm)`` pairs.

    A path is a tuple of argument indices from the root.
    """
    yield path, term
    if isinstance(term, Fun):
        for i, a in enumerate(term.args):
            yield from subterms(a, path + (i,))


def replace_at(term: Term, path: tuple, new: Term) -> Term:
    """Return ``term`` with the subterm at ``path`` replaced by ``new``.

    Parent nodes are rebuilt through :func:`mk_fun`, so AC nodes
    re-normalise (the replacement may therefore collapse or reorder
    them); the *semantics* of the replacement is preserved.
    """
    if not path:
        return new
    if not isinstance(term, Fun):
        raise TermError(f"path {path} does not exist in {term!r}")
    index = path[0]
    if index >= len(term.args):
        raise TermError(f"path {path} does not exist in {term!r}")
    new_args = list(term.args)
    new_args[index] = replace_at(term.args[index], path[1:], new)
    return mk_fun(term.name, new_args)


def term_size(term: Term) -> int:
    """Number of nodes in the term (the paper's rule-termination measure)."""
    size = 0
    stack = [term]
    while stack:
        t = stack.pop()
        size += 1
        if isinstance(t, Fun):
            stack.extend(t.args)
    return size


def term_depth(term: Term) -> int:
    """Levels of nesting in the term: 1 for a leaf, one more than its
    deepest argument for an application.  Walked with an explicit
    stack -- this is the measure that bounds what the recursive passes
    are handed."""
    deepest = 0
    stack = [(term, 1)]
    while stack:
        t, depth = stack.pop()
        if isinstance(t, Fun) and t.args:
            stack.extend((a, depth + 1) for a in t.args)
        elif depth > deepest:
            deepest = depth
    return deepest


def variables_of(term: Term) -> set[str]:
    return {t.name for t in walk(term) if isinstance(t, Var)}


def collvars_of(term: Term) -> set[str]:
    return {t.name for t in walk(term) if isinstance(t, CollVar)}


def is_ground(term: Term) -> bool:
    """No variable occurs in ``term``.  Like :attr:`Fun.symbols`,
    answered once per node, on first use."""
    if not isinstance(term, Fun):
        return not isinstance(term, (Var, CollVar))
    ground = term._ground
    if ground is None:
        ground = term._ground = all(map(is_ground, term.args))
    return ground
