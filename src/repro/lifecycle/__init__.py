"""Query-lifecycle governance: cancellation, deadlines, budgets.

The resilience layer (PR 2) bounded the *rewrite* phase; this package
bounds the whole statement.  A :class:`QueryContext` -- cancel token,
wall-clock deadline, row/memory budgets -- is minted per governed
statement by :class:`~repro.engine.database.Database`, threaded
through the evaluator's cooperative check sites, registered in a
:class:`StatementRegistry` (surfaced as the ``sys.queries`` virtual
relation) and killable by id (``Server.kill`` / CLI ``.kill``).
Nothing sweeps it from outside: the statement trips its own deadline
at its next cooperative check, a pooled statement's dispatcher
enforces it on the worker, and a lock waiter recovers a writer lock
whose owner died.  See ``docs/robustness.md``.
"""

from repro.lifecycle.chaos import ChaosInjector
from repro.lifecycle.context import (DEFAULT_CHECK_INTERVAL,
                                     MemoryAccountant, QueryContext,
                                     Truncation, current_context,
                                     pending_dispatch, use_context,
                                     use_dispatch)
from repro.lifecycle.registry import StatementRegistry

__all__ = [
    "QueryContext", "MemoryAccountant", "Truncation",
    "current_context", "use_context", "pending_dispatch",
    "use_dispatch", "DEFAULT_CHECK_INTERVAL",
    "StatementRegistry", "ChaosInjector",
]
