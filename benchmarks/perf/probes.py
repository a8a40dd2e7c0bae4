"""The only file that touches non-facade entry points of ``repro``.

Each probe wraps one call into a layer -- ``parse_script_with_sources``,
``fingerprint_source``, ``Translator.execute``, ``typecheck``,
``Optimizer.optimize``, ``QueryRewriter.rewrite``,
``Evaluator.evaluate``, ``DurabilityManager.log_statement``,
``AdmissionController.admit``, ``ConcurrencyGuard.read/write``,
``Supervisor.submit`` -- with a span, plus the ``Database.query`` /
``execute`` facade itself, so the spans nest under the real statement
path and add up to it.  Counts are read at the same boundaries from
what the call returns (``RewriteResult``, ``EvalStats``).

Probes are installed for the traced passes only and removed after, so
the end-to-end numbers never run through them.  A probe whose entry
point no longer exists is skipped and named in :attr:`Probes.missing`:
its metrics read as missing, its time folds into the parent span, and
nothing else changes -- a refactor of ``src/`` cannot break the
end-to-end run.
"""

from __future__ import annotations

import cProfile
import importlib
import os
import pstats
import sys
from contextlib import contextmanager

from .trace import Tracer

__all__ = ["Probes", "CallProfile", "reset_caches"]


def _function_probe(tracer: Tracer, name: str, original):
    begin, end = tracer.begin, tracer.end

    def probe(*args, **kwargs):
        span = begin(name)
        try:
            return original(*args, **kwargs)
        finally:
            end(span)
    return probe


def _translate_probe(tracer: Tracer, original, is_query):
    """``Translator.execute``: a span named for what the statement
    is -- a query being translated, or DDL/DML being applied."""
    begin, end = tracer.begin, tracer.end

    def probe(self, statement, *args, **kwargs):
        span = begin("esql.translate" if is_query(statement)
                     else "esql.dml_apply")
        try:
            return original(self, statement, *args, **kwargs)
        finally:
            end(span)
    return probe


def _optimize_probe(tracer: Tracer, original, term_size):
    begin, end, count = tracer.begin, tracer.end, tracer.count

    def probe(*args, **kwargs):
        span = begin("core.optimize")
        try:
            optimized = original(*args, **kwargs)
        finally:
            end(span)
        count("core.optimizes")
        count("lera.plan_nodes", term_size(optimized.final))
        return optimized
    return probe


def _rewrite_probe(tracer: Tracer, original):
    begin, end, count = tracer.begin, tracer.end, tracer.count

    def probe(*args, **kwargs):
        span = begin("rules.rewrite")
        try:
            result = original(*args, **kwargs)
        finally:
            end(span)
        count("rules.rewrites")
        count("rules.checks", result.checks)
        if result.applications:
            count("rules.applications", result.applications)
            for entry in result.trace:
                count(f"rules.block.{entry.block}.applications")
        else:
            count("rules.noop_rewrites")
        return result
    return probe


def _evaluate_probe(tracer: Tracer, original):
    begin, end, count = tracer.begin, tracer.end, tracer.count

    def probe(self, *args, **kwargs):
        before = self.stats.snapshot()
        span = begin("engine.evaluate")
        try:
            return original(self, *args, **kwargs)
        finally:
            end(span)
            count("engine.evaluations")
            for key, value in self.stats.snapshot().items():
                if value != before[key]:
                    count(f"engine.{key}", value - before[key])
    return probe


class _SpannedContext:
    """Wraps a context manager: spans cover entering and leaving it
    (acquire and release), not the body it guards."""

    __slots__ = ("_tracer", "_name", "_inner")

    def __init__(self, tracer: Tracer, name: str, inner):
        self._tracer, self._name, self._inner = tracer, name, inner

    def __enter__(self):
        span = self._tracer.begin(self._name)
        try:
            return self._inner.__enter__()
        finally:
            self._tracer.end(span)

    def __exit__(self, *exc_info):
        span = self._tracer.begin(self._name)
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            self._tracer.end(span)


def _context_probe(tracer: Tracer, name: str, original):
    def probe(*args, **kwargs):
        return _SpannedContext(tracer, name, original(*args, **kwargs))
    return probe


# span name -> (module, owner class or None, attribute)
_TARGETS = {
    "esql.parse": ("repro.esql.parser", None,
                   "parse_script_with_sources"),
    "esql.fingerprint": ("repro.esql.fingerprint", None,
                         "fingerprint_source"),
    "esql.translate": ("repro.esql.translate", "Translator", "execute"),
    "lera.typecheck": ("repro.lera.typecheck", None, "typecheck"),
    "core.optimize": ("repro.core.optimizer", "Optimizer", "optimize"),
    "rules.rewrite": ("repro.core.rewriter", "QueryRewriter", "rewrite"),
    "engine.evaluate": ("repro.engine.evaluate", "Evaluator", "evaluate"),
    "durability.log_statement": ("repro.durability.manager",
                                 "DurabilityManager", "log_statement"),
    "server.admit": ("repro.server.admission", "AdmissionController",
                     "admit"),
    "server.guard_read": ("repro.server.locks", "ConcurrencyGuard",
                          "read"),
    "server.guard_write": ("repro.server.locks", "ConcurrencyGuard",
                           "write"),
    "pool.submit": ("repro.pool.supervisor", "Supervisor", "submit"),
    "engine.query": ("repro.engine.database", "Database", "query"),
    "engine.execute": ("repro.engine.database", "Database", "execute"),
}
# ("esql.dml_apply" spans come from the Translator.execute probe too)
_CONTEXT_PROBES = ("server.admit", "server.guard_read",
                   "server.guard_write")


class Probes:
    """Resolves, installs and removes the probes."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list = []
        # (owner object, attribute, original, replacement)
        self._patches: list = []
        for name, (module_name, owner, attr) in _TARGETS.items():
            try:
                holder = importlib.import_module(module_name)
                if owner is not None:
                    holder = getattr(holder, owner)
                original = holder.__dict__[attr]
                probe = self._make(name, original)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                if name == "esql.translate":
                    self.missing.append("esql.dml_apply")
                continue
            self._patches.append((holder, attr, original, probe))
            if owner is None:
                # modules that did ``from x import f`` hold their own
                # reference to the function: rebind those too
                for module in list(sys.modules.values()):
                    if (module is not holder
                            and getattr(module, "__name__", "")
                            .startswith("repro.")
                            and module.__dict__.get(attr) is original):
                        self._patches.append(
                            (module, attr, original, probe))

    def _make(self, name: str, original):
        tracer = self.tracer
        if name == "esql.translate":
            from repro.esql.ast import is_query
            return _translate_probe(tracer, original, is_query)
        if name == "core.optimize":
            from repro.terms.term import term_size
            return _optimize_probe(tracer, original, term_size)
        if name == "rules.rewrite":
            return _rewrite_probe(tracer, original)
        if name == "engine.evaluate":
            return _evaluate_probe(tracer, original)
        if name in _CONTEXT_PROBES:
            return _context_probe(tracer, name, original)
        return _function_probe(tracer, name, original)

    @contextmanager
    def installed(self):
        for holder, attr, __, probe in self._patches:
            setattr(holder, attr, probe)
        try:
            yield self
        finally:
            for holder, attr, original, __ in self._patches:
                setattr(holder, attr, original)


def reset_caches() -> list:
    """Empty the process-wide caches this file knows of (the
    statement-fingerprint memo), so that a count pass on a freshly
    built instance starts cold and its counts repeat exactly; returns
    what was cleared.  Caches owned by a ``Database`` are new with
    each instance and need nothing."""
    cleared = []
    try:
        from repro.esql import fingerprint
        fingerprint._memo.clear()
        cleared.append("esql.fingerprint memo")
    except (ImportError, AttributeError):
        pass
    return cleared


class CallProfile:
    """Context manager: cProfile over its body, then exact
    Python-level call counts per ``src/repro/<package>/`` in
    :attr:`calls` (cProfile sees the calling thread only, so the body
    must be single-threaded for the counts to repeat)."""

    def __init__(self, packages):
        self.calls = dict.fromkeys(packages, 0)
        self._profile = cProfile.Profile()

    def __enter__(self):
        self._profile.enable()
        return self

    def __exit__(self, *exc_info):
        self._profile.disable()
        import repro
        root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
        stats = pstats.Stats(self._profile).stats
        for (filename, __, ___), entry in stats.items():
            if filename.startswith(root):
                package = filename[len(root):].split(os.sep, 1)[0]
                if package in self.calls:
                    self.calls[package] += entry[1]  # nc: all calls
        return False
