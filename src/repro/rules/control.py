"""Control strategy: blocks of rules and sequences of blocks (section 4.2).

The paper's meta-rule language::

    block({rules}, value)   -- a set of rules run up to ``value``
                               applications (an infinite limit means
                               saturation)
    seq((blocks), value)    -- blocks applied in order, the whole list
                               up to ``value`` times

"Any optimizer generated with the rule language is a sequence of blocks
of rules which can be applied multiple times.  Changing block
definitions or the list of blocks in the sequence meta-rule may
completely change the generated optimizer."

The engine applies rules outermost-first: it scans the term top-down,
tries each rule of the block at each position, applies the first
application that *changes* the term, and restarts the scan.  A block
finishes when its budget is exhausted or the term is saturated.

A restarted scan costs what changed, not the size of the term.  Each
block dispatches on the root functor of its rules' left terms, skips a
subtree that holds none of those functors, a rule rejects from
function symbols alone a subject it cannot match
(``quick_applicable``), and subtrees already scanned without an
application are remembered for the rest of the rewrite and skipped
(terms are immutable, so after an application only the new subterm and
its ancestors are unknown).  None of this changes which rule fires
where: positions are still visited in pre-order and rules tried in
block order.

The paper describes the limit both as "the maximum number of rule
applications" and as decremented "each time a rule condition is
checked"; both accountings are implemented (``count`` = "applications"
or "checks") and compared in the A1/A2 ablation benchmarks.  A *check*
is one rule condition handed to the matcher: one ``RuleAttempt`` event,
one unit of ``RewriteResult.checks`` and of a ``count="checks"``
budget.  A rule turned away by the index or by ``quick_applicable``,
and a position skipped as already scanned, cost no check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Optional, Sequence

from repro.errors import ReproError, RewriteError
from repro.lera import ops
from repro.lera.schema import Schema, schema_of
from repro.lifecycle.context import current_context
from repro.obs.events import (BlockEnd, BlockStart, PassEnd, RuleAttempt,
                              RuleFired)
from repro.resilience.policy import (ResiliencePolicy, ResilienceRuntime,
                                     term_snippet)
from repro.resilience.quarantine import QuarantineRegistry
from repro.rules.rule import RewriteRule, RuleContext
from repro.terms.term import Fun, Term, replace_at, term_size

__all__ = ["Block", "Seq", "RewriteEngine", "RewriteResult", "TraceEntry"]

_SAFETY_LIMIT = 100_000

@dataclass(frozen=True)
class TraceEntry:
    """One recorded rule application.

    ``duration`` is the wall time in seconds of the block scan that
    found the application -- from the scan's start at the root to the
    rule that fired, rejected positions and failed attempts included.
    It is measured on every path, bus or not (two clock reads a scan).
    """

    block: str
    rule: str
    path: tuple
    before: Term
    after: Term
    duration: float = 0.0

    def __str__(self) -> str:
        return (f"[{self.block}/{self.rule}] at {list(self.path)}: "
                f"{self.before!r}  ==>  {self.after!r}")


@dataclass
class RewriteResult:
    """The outcome of running a rewrite program.

    ``degraded`` is True when a deadline (the rewrite's or its
    statement's) or a global work budget expired before saturation:
    ``term`` is then the best term found so far, not a fixpoint (the
    graceful-degradation contract of ``docs/robustness.md``).
    ``resilience`` carries the rewrite's
    :class:`~repro.resilience.policy.ResilienceReport` when the engine
    ran with a resilience policy, else None.
    """

    term: Term
    trace: list[TraceEntry] = field(default_factory=list)
    applications: int = 0
    checks: int = 0
    passes: int = 0
    degraded: bool = False
    degraded_reason: Optional[str] = None
    resilience: object = None

    def rules_fired(self) -> list[str]:
        return [entry.rule for entry in self.trace]

    def summary(self) -> dict[str, dict[str, int]]:
        """Per-block histograms of rule firings."""
        out: dict[str, dict[str, int]] = {}
        for entry in self.trace:
            block = out.setdefault(entry.block, {})
            block[entry.rule] = block.get(entry.rule, 0) + 1
        return out


class Block:
    """``block({rules}, value)``: rules plus an application budget.

    ``limit=None`` means saturation (the paper's infinite limit).
    ``count`` selects the budget unit: rule *applications* (default) or
    rule-condition *checks* (the paper's stricter reading).
    """

    def __init__(self, name: str, rules: Iterable[RewriteRule],
                 limit: Optional[int] = None, count: str = "applications"):
        if count not in ("applications", "checks"):
            raise RewriteError(
                f"block {name!r}: count must be 'applications' or "
                f"'checks', got {count!r}"
            )
        self.name = name
        self.rules = list(rules)
        self.limit = limit
        self.count = count
        self._index: Optional[tuple] = None

    def dispatch(self) -> tuple[dict, tuple, Optional[frozenset], dict]:
        """``(by_root, rootless, roots, screens)``: for each root
        functor the rules that can match under it, and the rules that
        can match anywhere -- both in block order, the second merged
        into every entry of the first; when no rule can match anywhere,
        the set of root functors (else None): a subtree that holds none
        of them holds no application; and for each compiled rule
        reached through its functor the symbols its left term needs
        below the root -- all that is left of its ``quick_applicable``
        there.  A rule names its functor in an optional ``root_name``
        attribute; None or no attribute (native and duck-typed rules)
        means anywhere.  Generated on first use and again whenever
        ``rules`` was mutated in place (``QueryRewriter.add_rule``);
        ``with_limit`` shares it.
        """
        index = self._index
        if index is None or index[0] != self.rules:
            # one assignment: concurrent readers share a block
            self._index = index = self._generate()
        return index[1:]

    def _generate(self) -> tuple:
        rooted = [(getattr(rule, "root_name", None), rule)
                  for rule in self.rules]
        rootless = tuple(rule for root, rule in rooted if root is None)
        roots = frozenset(root for root, __ in rooted) - {None}
        by_root = {
            name: tuple(rule for root, rule in rooted
                        if root is None or root == name)
            for name in roots
        }
        screens = {rule: rule.inner_symbols for root, rule in rooted
                   if root is not None and isinstance(rule, RewriteRule)}
        return (list(self.rules), by_root, rootless,
                None if rootless else roots, screens)

    def rule_index(self) -> tuple[dict, tuple]:
        """``(by_root, rootless)`` of :meth:`dispatch`."""
        return self.dispatch()[:2]

    def with_limit(self, limit: Optional[int]) -> "Block":
        self.dispatch()
        clone = Block(self.name, self.rules, limit, self.count)
        clone._index = self._index
        return clone

    def rule_names(self) -> list[str]:
        return [r.name for r in self.rules]

    def __repr__(self) -> str:
        limit = "inf" if self.limit is None else self.limit
        return f"Block({self.name}, {len(self.rules)} rules, limit={limit})"


class Seq:
    """``seq((blocks), value)``: an ordered block list applied up to
    ``value`` full passes (stopping early at global saturation)."""

    def __init__(self, blocks: Sequence[Block], passes: int = 1):
        if passes < 0:
            raise RewriteError("seq passes must be >= 0")
        self.blocks = list(blocks)
        self.passes = passes

    def __repr__(self) -> str:
        names = ", ".join(b.name for b in self.blocks)
        return f"Seq([{names}], passes={self.passes})"


class RewriteEngine:
    """Runs a :class:`Seq` over a term, producing a rewrite trace.

    ``obs`` is an optional :class:`~repro.obs.bus.EventBus`.  Every
    event construction sits behind a truthiness test of the bus (the
    null-sink fast path), so an engine without subscribers pays only a
    handful of ``None`` checks per block.

    Three things govern a rewrite, each read where it lives: the
    optional ``resilience`` policy, the ambient
    :class:`~repro.lifecycle.context.QueryContext` of the statement
    (its deadline and cancel token, polled before each block and each
    application search) and the ``quarantine`` registry, whose rules
    are skipped and into which this engine benches -- the database's
    when a rewriter hands it over, else one private to this engine.
    """

    def __init__(self, seq: Seq, safety_limit: int = _SAFETY_LIMIT,
                 collect_trace: bool = True, obs=None,
                 resilience: Optional[ResiliencePolicy] = None,
                 quarantine: Optional[QuarantineRegistry] = None):
        self.seq = seq
        self.safety_limit = safety_limit
        self.collect_trace = collect_trace
        self.obs = obs
        self.resilience = resilience
        self.quarantine = (quarantine if quarantine is not None
                           else QuarantineRegistry())

    def rewrite(self, term: Term, ctx: RuleContext) -> RewriteResult:
        result = RewriteResult(term)
        bus = self.obs if self.obs else None
        # scan state of this rewrite; none of it goes stale, because
        # terms are immutable and schema_of is pure within a rewrite
        self._base, self._bus = ctx, bus
        self._schema_cache: dict = {}  # (term, top context) -> schema
        self._tops: dict = {}          # see _top_context
        self._inners: dict = {}        # see _inner_context
        self._clean: dict = {}         # block -> {(subterm, context)}
        self._root_top = self._top_context(dict(ctx.fix_env or {}))
        runtime = ResilienceRuntime(self.resilience, self.quarantine,
                                    current_context())
        for pass_index in range(self.seq.passes):
            changed = False
            result.passes += 1
            pass_t0 = perf_counter() if bus else 0.0
            for block in self.seq.blocks:
                if runtime.exhausted(result.applications, bus):
                    break
                before = result.term
                trace_mark = len(result.trace)
                apps_mark = result.applications
                self._run_block(block, result, bus, pass_index, runtime)
                if result.term == before:
                    continue
                if not runtime.validate_block(
                        block.name, before, result.term,
                        result.applications - apps_mark, bus):
                    # checked mode refuted this block: localize blame
                    # (step-replay over the trace benches the one
                    # unsound rule) and roll it back
                    runtime.blame_rollback(
                        block.name, before, result.trace[trace_mark:],
                        bus,
                    )
                    result.term = before
                    del result.trace[trace_mark:]
                    result.applications = apps_mark
                    continue
                changed = True
            if bus:
                bus.emit(PassEnd(pass_index, changed,
                                 perf_counter() - pass_t0))
            if runtime.report.degraded or not changed:
                break
        if self.resilience is not None:
            result.resilience = runtime.report
        result.degraded = runtime.report.degraded
        result.degraded_reason = runtime.report.degraded_reason
        return result

    # -- one block ----------------------------------------------------------
    def _run_block(self, block: Block, result: RewriteResult,
                   bus, pass_index: int,
                   runtime: ResilienceRuntime) -> None:
        if bus:
            bus.emit(BlockStart(block.name, pass_index, block.limit,
                                block.count))
            block_t0 = perf_counter()
            apps_before, checks_before = result.applications, result.checks
        budget = block.limit
        exhausted = False
        history = runtime.history_for(result.term)
        while budget is None or budget > 0:
            if runtime.exhausted(result.applications, bus):
                break
            scan_t0 = perf_counter()
            application = self._find_application(
                block, result, budget, bus, runtime
            )
            if application is None:
                break
            scan_time = perf_counter() - scan_t0
            path, before, after, rule_name, spent_checks, new_term = \
                application
            if block.count == "checks":
                if budget is not None:
                    budget -= spent_checks
                    if budget < 0:
                        exhausted = True
                        break  # the budget ran out mid-scan
            else:
                if budget is not None:
                    budget -= 1
            result.term = new_term
            result.applications += 1
            if self.collect_trace:
                result.trace.append(TraceEntry(
                    block.name, rule_name, path, before, after, scan_time,
                ))
            if bus:
                bus.emit(RuleFired(
                    block.name, rule_name, path,
                    term_size(before), term_size(after), scan_time,
                ))
            if result.applications > self.safety_limit:
                raise RewriteError(
                    f"rewrite exceeded the safety limit of "
                    f"{self.safety_limit} applications (a rule set may "
                    f"be non-terminating); last fired rule "
                    f"{rule_name!r} in block {block.name!r} at "
                    f"{list(path)}; current term: "
                    f"{term_snippet(result.term)}"
                )
            if history is not None:
                verdict = history.record(result.term, rule_name)
                if verdict is not None:
                    runtime.record_divergence(block.name, verdict, bus)
                    break
        if bus:
            if block.limit is None:
                consumed = (result.applications - apps_before
                            if block.count == "applications"
                            else result.checks - checks_before)
            elif exhausted:
                consumed = block.limit
            else:
                consumed = block.limit - (budget or 0)
            bus.emit(BlockEnd(
                block.name, pass_index,
                result.applications - apps_before,
                result.checks - checks_before,
                consumed, perf_counter() - block_t0,
            ))

    def _find_application(self, block: Block, result: RewriteResult,
                          budget: Optional[int], bus,
                          runtime: ResilienceRuntime):
        """First (position, rule) application that changes the term:
        positions in pre-order, rules in block order.

        Inside a qualification or projection list a position is scanned
        under the context of the nearest enclosing operator (its input
        schemas, so ISA constraints can type attribute references);
        below a FIX, under an environment that knows the fixpoint's
        schema.  A subtree scanned to the end without an application is
        recorded in the block's memo under ``(subterm, context)`` and
        skipped from then on.  Three events keep a subtree, and every
        subtree around it, out of the memo: a sandboxed rule raised (it
        may behave differently next time), an application was dropped
        as a no-op at the parent (that verdict depends on the
        ancestors), or the checks budget ended the scan early.
        """
        by_root, rootless, roots, screens = block.dispatch()
        clean = self._clean.setdefault(block, set())
        root = result.term
        sandbox = runtime.policy.sandbox
        quarantined = self.quarantine.rules()
        checks_left = budget if block.count == "checks" else None
        checks_this_scan = 0
        unclean = 0
        found = None

        def attempt(rules, subterm: Term, path: tuple,
                    local_ctx: RuleContext) -> bool:
            """Try ``rules`` at one position; True ends the scan."""
            nonlocal checks_this_scan, unclean, found, quarantined
            symbols = None
            for rule in rules:
                if quarantined and rule.name in quarantined:
                    continue
                needed = screens.get(rule)
                if needed is None:
                    if not rule.quick_applicable(subterm):
                        continue
                elif needed:
                    if symbols is None:
                        symbols = subterm.symbols
                    if not needed <= symbols:
                        continue
                checks_this_scan += 1
                result.checks += 1
                if checks_left is not None and \
                        checks_this_scan > checks_left:
                    return True  # the budget ran out mid-scan
                if bus:
                    attempt_t0 = perf_counter()
                if sandbox:
                    try:
                        application = rule.apply(subterm, local_ctx)
                    except Exception as error:
                        # one bad rule must not take down the rewrite:
                        # record, maybe quarantine, and keep scanning
                        unclean += 1
                        runtime.record_failure(
                            block.name, rule.name, path, error, bus,
                        )
                        quarantined = self.quarantine.rules()  # benched?
                        if bus:
                            bus.emit(RuleAttempt(
                                block.name, rule.name, path, False,
                                perf_counter() - attempt_t0,
                            ))
                        continue
                else:
                    application = rule.apply(subterm, local_ctx)
                if application is not None:
                    after, __ = application
                    new_term = replace_at(root, path, after)
                    if new_term != root:
                        if bus:
                            bus.emit(RuleAttempt(
                                block.name, rule.name, path, True,
                                perf_counter() - attempt_t0,
                            ))
                        found = (path, subterm, after, rule.name,
                                 checks_this_scan, new_term)
                        return True
                    # a no-op once re-normalised at the parent (AC
                    # deduplication): not an application at all
                    unclean += 1
                if bus:
                    bus.emit(RuleAttempt(
                        block.name, rule.name, path, False,
                        perf_counter() - attempt_t0,
                    ))
            return False

        def scan(t: Term, path: tuple, here: RuleContext,
                 top: RuleContext) -> bool:
            """Scan the subtree at ``path``; True ends the scan.
            ``here`` is the context of this position, ``top`` the one
            relations are scanned under in the same environment."""
            if not isinstance(t, Fun):
                return bool(rootless) and attempt(rootless, t, path, here)
            name = t.name
            if roots is not None and name not in roots \
                    and roots.isdisjoint(t.symbols):
                return False  # no rule of the block is rooted in here
            key = (t, here)
            if key in clean:
                return False
            mark = unclean
            rules = by_root.get(name, rootless)
            if rules and attempt(rules, t, path, here):
                return True
            scoped = ops.SCOPED_ARGS.get(name)
            if scoped:
                rels = ops.relation_inputs(t)
                # operands held in a LIST sit one level down (the LIST
                # itself is no position)
                held = path + (0,) if name in ops.INPUTS_IN_COLLECTION \
                    else path
                for i, r in enumerate(rels):
                    if scan(r, held + (i,), top, top):
                        return True
                inner = self._inner_context(rels, top)
                for i in scoped:
                    if scan(t.args[i], path + (i,), inner, top):
                        return True
            elif name == "FIX":
                body_top = self._fix_context(t, top)
                if scan(t.args[1], path + (1,), body_top, body_top):
                    return True
            else:
                for i, a in enumerate(t.args):
                    if scan(a, path + (i,), here, top):
                        return True
            if unclean == mark:
                clean.add(key)
            return False

        scan(root, (), self._root_top, self._root_top)
        return found

    # -- contexts and schemas of one rewrite ----------------------------------
    def _top_context(self, fix_env: dict) -> RuleContext:
        """The context relations are scanned under in one fixpoint
        environment, interned by the environment's value: a FIX rebuilt
        with the same schema keeps the memo of its body."""
        key = tuple(sorted(fix_env.items(), key=lambda kv: kv[0]))
        top = self._tops.get(key)
        if top is None:
            top = self._tops[key] = self._context(fix_env)
        return top

    def _inner_context(self, rels: tuple, top: RuleContext) -> RuleContext:
        """The context of the qualification and projection list of an
        operator over ``rels``; the input schemas are computed when a
        rule first reads them."""
        key = (rels, top)
        inner = self._inners.get(key)
        if inner is None:
            inner = self._inners[key] = self._context(top.fix_env)
            cache = self._schema_cache
            inner.defer_schemas(lambda: _input_schemas(cache, rels, top))
        return inner

    def _fix_context(self, fix: Fun, top: RuleContext) -> RuleContext:
        """The top context of a FIX body: the fixpoint's own schema
        joins the environment under the relation's name."""
        schema = _schema(self._schema_cache, fix, top)
        if schema is None:
            return top
        fix_env = dict(top.fix_env)
        fix_env[str(fix.args[0].value)] = schema  # type: ignore
        return self._top_context(fix_env)

    def _context(self, fix_env: dict) -> RuleContext:
        base = self._base
        return RuleContext(
            catalog=base.catalog,
            constraint_evaluator=base.constraint_evaluator,
            methods=base.methods,
            fix_env=fix_env,
            obs=self._bus,
        )


def _schema(cache: dict, term: Term, top: RuleContext) -> Optional[Schema]:
    """``schema_of(term)`` in ``top``'s environment (None when it has
    none), through the rewrite's cache."""
    key = (term, top)
    try:
        return cache[key]
    except KeyError:
        pass
    schema = None
    if top.catalog is not None:
        try:
            schema = schema_of(term, top.catalog, top.fix_env)
        except ReproError:
            pass
    cache[key] = schema
    return schema


def _input_schemas(cache: dict, rels: tuple,
                   top: RuleContext) -> Optional[list[Schema]]:
    if top.catalog is None:
        return None
    schemas = []
    for r in rels:
        schema = _schema(cache, r, top)
        if schema is None:
            return None
        schemas.append(schema)
    return schemas
