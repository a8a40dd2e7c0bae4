"""The per-statement knobs, declared once.

Every layer that runs a statement -- ``Database.query`` / ``execute``,
a serving :class:`~repro.server.session.Session` (which exports this
class as ``SessionSettings``), the CLI, and the pool's ``execute``
frame -- carries one :class:`StatementOptions` object instead of
re-spelling its fields.  ``None`` defers a knob to the database-wide
default; :meth:`StatementOptions.resolved` replaces every deferral in
one place, which is also what a pool replica receives: the parent's
resolved values, never the replica's own defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["StatementOptions", "collect"]

# knob -> the Database attribute holding its default
_DATABASE_DEFAULTS = (
    ("rewrite", "rewrite_default"), ("checked", "checked"),
    ("deadline_ms", "deadline_ms"), ("timeout_ms", "statement_timeout_ms"),
    ("row_budget", "row_budget"), ("memory_budget", "memory_budget"),
    ("degrade", "degrade"),
)


@dataclass
class StatementOptions:
    """The per-statement knobs (``None`` defers to the database default).

    ``rewrite``/``checked``/``deadline_ms`` mirror the CLI toggles;
    ``profile`` drives whether EXPLAIN output embeds telemetry.
    ``timeout_ms``/``row_budget``/``memory_budget``/``degrade`` are the
    lifecycle-governance knobs (whole-statement wall clock, row and
    byte budgets, truncate-don't-fail); see ``docs/robustness.md``.
    Mutable on purpose: the CLI flips these in place.
    """

    rewrite: Optional[bool] = None
    checked: Optional[bool] = None
    deadline_ms: Optional[float] = None
    profile: bool = False
    timeout_ms: Optional[float] = None
    row_budget: Optional[int] = None
    memory_budget: Optional[int] = None
    degrade: Optional[bool] = None
    # EXPLAIN ANALYZE mode: queries collect per-operator actuals into
    # sys.plan_nodes (pool workers ship theirs back in the reply frame);
    # in-process callers may hand a pre-built AnalyzeCollector instead
    analyze: bool = False

    def resolved(self, database) -> "StatementOptions":
        """These options with every deferred knob replaced by
        ``database``'s current default (idempotent; a knob the database
        leaves unset stays ``None``)."""
        defaults = {}
        for knob, attribute in _DATABASE_DEFAULTS:
            if getattr(self, knob) is None:
                default = getattr(database, attribute)
                if default is not None:
                    defaults[knob] = default
        return replace(self, **defaults) if defaults else self

    def describe(self) -> str:
        parts = []
        if self.rewrite is not None:
            parts.append(f"rewrite={'on' if self.rewrite else 'off'}")
        if self.checked is not None:
            parts.append(f"checked={'on' if self.checked else 'off'}")
        if self.deadline_ms is not None:
            parts.append(f"deadline={self.deadline_ms:g}ms")
        if self.profile:
            parts.append("profile=on")
        if self.timeout_ms is not None:
            parts.append(f"timeout={self.timeout_ms:g}ms")
        if self.row_budget is not None:
            parts.append(f"rows={self.row_budget}")
        if self.memory_budget is not None:
            parts.append(f"memory={self.memory_budget}B")
        if self.degrade is not None:
            parts.append(f"degrade={'on' if self.degrade else 'off'}")
        if self.analyze:
            parts.append("analyze=on")
        return ", ".join(parts) or "defaults"


_DEFERRED = StatementOptions()


def collect(options: Optional[StatementOptions] = None,
            **keywords) -> StatementOptions:
    """The one options object of a call: ``options`` (all knobs
    deferred when omitted) overlaid with every keyword the caller
    actually passed (``None`` means "not passed")."""
    passed = {k: v for k, v in keywords.items() if v is not None}
    base = _DEFERRED if options is None else options
    return replace(base, **passed) if passed else base
