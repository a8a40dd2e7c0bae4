"""The rule quarantine: a rule shown unsound or crashing stays benched.

One :class:`QuarantineRegistry` is the only bench there is.  The
:class:`~repro.engine.database.Database` owns one (so it outlives
statements and optimizer regenerations) and hands it to its rewriter;
the rewrite engine skips every rule on it -- policy or no policy -- and
benches into it: checked-mode blame (``source="checked"``) and crashes
past the failure threshold (``"sandbox"``) land beside what an operator
(``"manual"``) or, on a pool replica, the parent database
(``"parent"``) put there.  Once a rule is benched no later statement
lets it fire until it is lifted.  An engine built without a registry
gets a private one that lasts its own lifetime.

Entries carry provenance (who benched the rule and why) and surface as
the ``sys.quarantine`` introspection relation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

__all__ = ["QuarantineEntry", "QuarantineRegistry"]


@dataclass(frozen=True)
class QuarantineEntry:
    """One benched rule and the evidence that benched it."""

    rule: str
    block: str
    source: str   # "checked" | "sandbox" | "manual" | "parent"
    detail: str
    benched_at: float

    def as_dict(self) -> dict:
        return {
            "rule": self.rule, "block": self.block,
            "source": self.source, "detail": self.detail,
            "benched_at": self.benched_at,
        }


class QuarantineRegistry:
    """Thread-safe set of rule names banned from rewriting.

    Writers serialize on a lock and replace the name set whole, so
    :meth:`rules` -- what the rewrite engine reads before every scan --
    takes no lock and is falsy while nothing is benched.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[str, QuarantineEntry] = {}
        self._names: frozenset = frozenset()

    def note(self, block: str, rule: str, detail: str,
             source: str = "checked") -> bool:
        """Bench ``rule``; True when this call benched it.  Later notes
        for the same rule are ignored (the first confirmed divergence
        is the evidence that counts)."""
        with self._lock:
            if rule in self._entries:
                return False
            self._entries[rule] = QuarantineEntry(
                rule=rule, block=block, source=source, detail=detail,
                benched_at=time.time(),
            )
            self._names = frozenset(self._entries)
            return True

    def lift(self, rule: str) -> bool:
        """Un-bench a rule (operator override); True when it was benched."""
        with self._lock:
            lifted = self._entries.pop(rule, None) is not None
            self._names = frozenset(self._entries)
            return lifted

    def rules(self) -> frozenset:
        return self._names

    def entries(self) -> list[QuarantineEntry]:
        with self._lock:
            return sorted(self._entries.values(), key=lambda e: e.rule)

    def __contains__(self, rule: str) -> bool:
        return rule in self._names

    def __len__(self) -> int:
        return len(self._names)
