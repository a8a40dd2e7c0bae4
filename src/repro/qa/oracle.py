"""The differential oracle: one case, many execution paths, one answer.

For each :class:`~repro.qa.schema_gen.Case` the oracle executes the
query along independent paths and demands bag-equal results:

* **rewrite** -- the full standard rewrite vs. the unrewritten plan
  (the library's central soundness property);
* **block subsets** -- metamorphic leave-one-out: the rewrite re-runs
  with each block removed from the sequence; every subset must still
  agree with the baseline.  A divergence here localizes the unsound
  rule set *and* catches inter-block feeding bugs the full-sequence
  check can mask (block B can undo block A's damage);
* **engine** -- the rewritten plan on the ablation engine (nested
  loops, naive fixpoint) vs. the default one (hash probe, semi-naive):
  a physical fast path may change how long an answer takes, never the
  answer;
* **cache** -- the same text asked again on the same database, which
  the plan cache serves without parsing or rewriting, vs. its first
  (planned) answer;
* **tier** -- the same statement through a supervised pool worker
  (its own process, booted from a snapshot) vs. in-process.

Results are compared as **bags**, not sets -- deliberately stricter
than the historical property tests: an unsound DISTINCT elimination or
a multiplicity-changing join rewrite is invisible to set comparison.
This matches the checked-mode validator
(:mod:`repro.resilience.checked`), which has always compared bags.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from repro.engine.database import Database

__all__ = ["Divergence", "DifferentialOracle", "result_bag",
           "describe_bags"]


def result_bag(rows: list[tuple]) -> Counter:
    """Rows as a multiset; unhashable values fall back to repr."""
    try:
        return Counter(rows)
    except TypeError:
        return Counter(repr(row) for row in rows)


def describe_bags(expected: list[tuple], got: list[tuple]) -> str:
    lost = list((result_bag(expected) - result_bag(got)).elements())
    gained = list((result_bag(got) - result_bag(expected)).elements())
    parts = [f"{len(expected)} row(s) expected, {len(got)} got"]
    if lost:
        parts.append(f"lost {lost[:4]!r}")
    if gained:
        parts.append(f"gained {gained[:4]!r}")
    return "; ".join(parts)


@dataclass(frozen=True)
class Divergence:
    """One confirmed non-equivalence between execution paths."""

    mode: str    # "rewrite[-error]" | "engine[-error]" | "block:<name>"
                 # | "cache[-error]" | "tier" | "analyze[-error]"
    detail: str
    query: str

    def __str__(self) -> str:
        return f"[{self.mode}] {self.query}\n  {self.detail}"


class DifferentialOracle:
    """Executes a case along every configured path and compares.

    Every case is also asked a second time on the same database -- a
    plan-cache hit -- and must give the bag its first, freshly planned
    run gave.

    Parameters
    ----------
    antipattern:
        Install the optional anti-pattern block in the databases the
        oracle builds (the default: those rules are exactly the ones
        this harness exists to guard).
    check_engine:
        Evaluate the rewritten plan once more under
        ``Evaluator(hash_joins=False, semi_naive=False)`` and demand
        the bag the default engine gave.
    check_subsets:
        Run the leave-one-out block-subset sweep.
    check_tier:
        Replay the query through a one-worker pool supervisor.  Off by
        default: a worker boot is a subprocess spawn, so the harness
        samples this leg rather than paying it per case.
    check_analyze:
        Re-run the rewritten query in EXPLAIN ANALYZE mode (a live
        :class:`~repro.engine.analyze.AnalyzeCollector` wrapping every
        operator) and demand the same bag -- instrumentation must be a
        pure observer, never an execution path of its own.
    """

    def __init__(self, antipattern: bool = True,
                 check_subsets: bool = True,
                 check_tier: bool = False,
                 check_analyze: bool = False,
                 check_engine: bool = True):
        self.antipattern = antipattern
        self.check_engine = check_engine
        self.check_subsets = check_subsets
        self.check_tier = check_tier
        self.check_analyze = check_analyze

    # -- plumbing ----------------------------------------------------------
    def build_db(self, case) -> Database:
        db = Database(antipattern=self.antipattern)
        script = case.setup_script()
        if script:
            db.execute(script)
        return db

    def _subset_rows(self, db: Database, term, skip_block: str):
        """Rows of ``term`` rewritten without ``skip_block``."""
        from repro.engine.evaluate import Evaluator
        from repro.lera.typecheck import typecheck
        from repro.rules.control import RewriteEngine, Seq

        rewriter = db.optimizer.rewriter
        blocks = [b for b in rewriter.seq.blocks
                  if b.name != skip_block]
        engine = RewriteEngine(
            Seq(blocks, passes=rewriter.seq.passes),
            collect_trace=False,
        )
        typed, __ = typecheck(term, db.catalog)
        result = engine.rewrite(typed, rewriter.context())
        final, __ = typecheck(result.term, db.catalog)
        return Evaluator(db.catalog).evaluate(final).rows

    def _tier_rows(self, case):
        """The query's rows through a pool worker (own process)."""
        from repro.pool import PoolConfig, Supervisor

        db = self.build_db(case)
        pool = Supervisor(db, PoolConfig(workers=1))
        db.commit_hooks.append(pool.note_write)
        pool.start()
        try:
            if not pool.wait_ready(timeout_s=60.0, workers=1):
                raise RuntimeError("pool worker failed to boot")
            return pool.submit(case.query).rows
        finally:
            pool.stop()
            db.close()

    # -- the oracle --------------------------------------------------------
    def check(self, case) -> Optional[Divergence]:
        """None when every path agrees; else the first divergence."""
        db = self.build_db(case)
        baseline = db.query(case.query, rewrite=False).rows
        expected = result_bag(baseline)

        try:
            rewritten = db.query(case.query, rewrite=True).rows
        except Exception as error:
            return Divergence(
                "rewrite-error",
                f"{type(error).__name__}: {error}", case.query,
            )
        if result_bag(rewritten) != expected:
            return Divergence(
                "rewrite", describe_bags(baseline, rewritten),
                case.query,
            )

        try:
            rows = db.query(case.query, rewrite=True).rows
        except Exception as error:
            return Divergence(
                "cache-error",
                f"{type(error).__name__}: {error}", case.query,
            )
        if result_bag(rows) != expected:
            return Divergence(
                "cache", describe_bags(rewritten, rows), case.query,
            )

        if self.check_engine:
            from repro.engine.evaluate import Evaluator
            try:
                rows = Evaluator(
                    db.catalog, hash_joins=False, semi_naive=False,
                ).evaluate(db.optimize(case.query).final).rows
            except Exception as error:
                return Divergence(
                    "engine-error",
                    f"{type(error).__name__}: {error}", case.query,
                )
            if result_bag(rows) != expected:
                return Divergence(
                    "engine", describe_bags(rewritten, rows), case.query,
                )

        if self.check_subsets:
            term = db._translate_single(case.query)
            for block in db.optimizer.rewriter.seq.blocks:
                try:
                    rows = self._subset_rows(db, term, block.name)
                except Exception as error:
                    return Divergence(
                        f"block:{block.name}",
                        f"{type(error).__name__}: {error}", case.query,
                    )
                if result_bag(rows) != expected:
                    return Divergence(
                        f"block:{block.name}",
                        describe_bags(baseline, rows), case.query,
                    )

        if self.check_analyze:
            from repro.engine.analyze import AnalyzeCollector
            collector = AnalyzeCollector()
            try:
                rows = db.query(case.query, rewrite=True,
                                analyze=collector).rows
            except Exception as error:
                return Divergence(
                    "analyze-error",
                    f"{type(error).__name__}: {error}", case.query,
                )
            if result_bag(rows) != expected:
                return Divergence(
                    "analyze", describe_bags(baseline, rows),
                    case.query,
                )
            if not collector.observed:
                return Divergence(
                    "analyze", "collector observed no operators",
                    case.query,
                )

        if self.check_tier:
            try:
                rows = self._tier_rows(case)
            except Exception as error:
                return Divergence(
                    "tier", f"{type(error).__name__}: {error}",
                    case.query,
                )
            if result_bag(rows) != expected:
                return Divergence(
                    "tier", describe_bags(baseline, rows), case.query,
                )
        return None

    def reproduces(self, case, mode: Optional[str] = None) -> bool:
        """Does ``case`` still diverge (the shrinker's predicate)?

        ``mode`` restricts to the same *family* of divergence (the
        prefix before any ``:``) so shrinking cannot wander from a
        rewrite bug to an unrelated tier flake.
        """
        try:
            divergence = self.check(case)
        except Exception:
            return False  # a broken setup script is not a repro
        if divergence is None:
            return False
        if mode is None:
            return True
        return divergence.mode.split(":")[0] == mode.split(":")[0]
