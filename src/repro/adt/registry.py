"""Extensible function registry -- the ADT method library.

The paper's extensibility story rests on a library of functions attached
to ADTs: built-in collection functions (Figure 1), user ADT methods, and
optimizer external functions.  The registry maps a case-insensitive name
(plus optional arity) to an implementation and an optional result-type
rule, and is the single place the evaluator, the type checker and the
rule engine look functions up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.adt.types import DataType
from repro.errors import FunctionError, UnknownFunctionError

__all__ = ["FunctionDef", "FunctionRegistry"]

# An implementation receives the evaluated argument values and an
# evaluation context (anything exposing ``objects`` -- the ObjectStore --
# and ``type_system``); it returns the result value.
Impl = Callable[[list, Any], Any]

# A result-type rule receives the argument types and the type system and
# returns the result type (used by the LERA type checker).
TypeRule = Callable[[list, Any], DataType]


@dataclass(frozen=True)
class FunctionDef:
    """One registered function.

    Attributes
    ----------
    name:
        Upper-cased function name.
    impl:
        Python implementation (the paper's C/C++ method body).
    arity:
        Required argument count, or None for variadic.
    type_rule:
        Optional result-type computation for the type checker.
    adt:
        The ADT the function belongs to (``"set"``, ``"collection"``,
        a user type name, ...) -- purely documentary, mirrors Figure 1.
    commutative / associative:
        Algebraic properties usable by rewrite rules.
    pure:
        True when the function is side-effect free and may be constant
        folded by the EVALUATE simplification method.
    """

    name: str
    impl: Impl
    arity: Optional[int] = None
    type_rule: Optional[TypeRule] = None
    adt: str = ""
    commutative: bool = False
    associative: bool = False
    pure: bool = True


class FunctionRegistry:
    """Name -> FunctionDef mapping with arity overloading.

    A name may be registered several times with different arities
    (e.g. ``SUBSTITUTE/3`` and ``SUBSTITUTE/4`` in the rule method
    library); a variadic definition (arity None) acts as the fallback.
    """

    def __init__(self):
        self._defs: dict[str, dict[Optional[int], FunctionDef]] = {}
        # called after each registration (compiled plans bind impls)
        self.on_change: Optional[Callable[[], None]] = None

    def register(self, fdef: FunctionDef, replace: bool = False) -> FunctionDef:
        key = fdef.name.upper()
        by_arity = self._defs.setdefault(key, {})
        if fdef.arity in by_arity and not replace:
            raise FunctionError(
                f"function {key}/{fdef.arity} already registered"
            )
        by_arity[fdef.arity] = fdef
        if self.on_change is not None:
            self.on_change()
        return fdef

    def define(self, name: str, impl: Impl, arity: Optional[int] = None,
               **kwargs) -> FunctionDef:
        """Convenience wrapper building and registering a FunctionDef."""
        replace = kwargs.pop("replace", False)
        fdef = FunctionDef(name.upper(), impl, arity, **kwargs)
        return self.register(fdef, replace=replace)

    def lookup(self, name: str, arity: Optional[int] = None) -> FunctionDef:
        """Find the definition for ``name`` called with ``arity`` args.

        Exact-arity matches win over a variadic fallback.
        """
        by_arity = self._defs.get(name.upper())
        if not by_arity:
            raise UnknownFunctionError(f"unknown function {name.upper()!r}")
        if arity in by_arity:
            return by_arity[arity]
        if None in by_arity:
            return by_arity[None]
        arities = sorted(a for a in by_arity if a is not None)
        raise FunctionError(
            f"function {name.upper()!r} not defined for arity {arity}; "
            f"known arities: {arities}"
        )

    def lookup_or_none(self, name: str,
                       arity: Optional[int] = None) -> Optional[FunctionDef]:
        try:
            return self.lookup(name, arity)
        except FunctionError:
            return None

    def knows(self, name: str) -> bool:
        return name.upper() in self._defs

    def call(self, name: str, args: list, ctx: Any) -> Any:
        """Dispatch a call through the registry."""
        fdef = self.lookup(name, len(args))
        if fdef.arity is not None and fdef.arity != len(args):
            raise FunctionError(
                f"{fdef.name} expects {fdef.arity} arguments, got {len(args)}"
            )
        return fdef.impl(args, ctx)

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._defs))

    def copy(self) -> "FunctionRegistry":
        clone = FunctionRegistry()
        for by_arity in self._defs.values():
            for fdef in by_arity.values():
                clone.register(fdef)
        return clone

    def merge(self, other: "FunctionRegistry") -> None:
        """Add every definition from ``other`` (later wins on conflict)."""
        for by_arity in other._defs.values():
            for fdef in by_arity.values():
                self.register(fdef, replace=True)
