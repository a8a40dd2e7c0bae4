"""The fuzz loop: deterministic, observable, and it finds planted bugs."""

from repro.obs.bus import EventBus
from repro.obs.events import EquivalenceViolation, FuzzCompleted
from repro.obs.metrics import MetricsRegistry
from repro.qa.harness import case_seed, fuzz
from repro.qa.oracle import DifferentialOracle

from tests.qa.test_oracle_shrink import (PreFixUnionPushOracle,
                                         UnsoundOracle)

N = 25
SEED = 7


class TestDeterminism:
    def test_identical_runs(self):
        a = fuzz(N, seed=SEED)
        b = fuzz(N, seed=SEED)
        assert (a.executed, a.skipped, a.violations) == \
            (b.executed, b.skipped, b.violations)

    def test_case_seeds_are_stable(self):
        assert case_seed(SEED, 0) == SEED * 1_000_003
        assert case_seed(SEED, 3) == SEED * 1_000_003 + 3

    def test_findings_replay_from_their_seed(self):
        oracle = UnsoundOracle(check_subsets=False)
        a = fuzz(N, seed=SEED, oracle=oracle, shrink=False)
        b = fuzz(N, seed=SEED, oracle=oracle, shrink=False)
        assert [f.case.query for f in a.findings] == \
            [f.case.query for f in b.findings]


class TestFindings:
    def test_clean_run_reports_ok(self):
        report = fuzz(N, seed=SEED)
        assert report.ok
        assert report.violations == 0
        assert report.executed + report.skipped == N

    def test_planted_bug_is_found_and_shrunk(self):
        oracle = UnsoundOracle(check_subsets=False)
        report = fuzz(60, seed=SEED, oracle=oracle)
        assert not report.ok
        finding = report.findings[0]
        assert finding.divergence.mode in ("rewrite", "rewrite-error")
        # the shrunk case must still reproduce, and not have grown
        assert oracle.reproduces(finding.shrunk,
                                 finding.divergence.mode)
        assert len(finding.shrunk.query) <= len(finding.case.query)

    def test_on_finding_streams(self):
        seen = []
        fuzz(60, seed=SEED, oracle=UnsoundOracle(check_subsets=False),
             shrink=False, on_finding=seen.append)
        assert seen, "the planted bug never streamed"


class TestRediscovery:
    """A harness that cannot rediscover a known bug is not yet a
    guard: the CI seed, run against the rule text that shipped the
    wrong answer of ROADMAP item 0a, must report it as a bag mismatch
    through a UNION view (the ``fuzz-smoke`` CI job runs the same seed
    on the fixed rule and demands zero violations)."""

    BUDGET = 150
    CI_SEED = 20260808

    def test_pre_fix_union_push_is_caught_within_budget(self):
        report = fuzz(self.BUDGET, seed=self.CI_SEED, shrink=False,
                      oracle=PreFixUnionPushOracle(check_subsets=False))
        assert report.skipped == 0
        assert report.violations >= 1
        finding = report.findings[0]
        assert finding.divergence.mode == "rewrite"
        assert "row(s) expected" in finding.divergence.detail
        assert any(" UNION " in view.body for view in finding.case.views
                   if view.name in finding.case.query)


    def test_a_probe_that_does_not_decline_is_caught_within_budget(
            self, monkeypatch):
        """PR 20's hash-join bug (0 rows where ``=`` broadcasts over a
        ``SET OF`` column) was found by reading code, because no
        generated schema had a collection column.  With the probe as
        the default, the CI seed must catch an index that keeps
        collection keys: only the engine leg can, since the baseline
        and the rewritten plan run on the same (broken) engine."""
        import importlib
        evaluate = importlib.import_module("repro.engine.evaluate")

        def hash_index_that_never_declines(rows, col):
            index = {}
            for row in rows:
                index.setdefault(row[col - 1], []).append(row)
            return index

        monkeypatch.setattr(evaluate, "_hash_index",
                            hash_index_that_never_declines)
        report = fuzz(self.BUDGET, seed=self.CI_SEED, shrink=False,
                      oracle=DifferentialOracle(check_subsets=False))
        assert report.violations >= 1
        finding = report.findings[0]
        assert finding.divergence.mode == "engine"
        assert any(column_type == "SET OF INT"
                   for table in finding.case.tables
                   for __, column_type in table.columns)
        # and nothing else sees it
        blind = fuzz(self.BUDGET, seed=self.CI_SEED, shrink=False,
                     oracle=DifferentialOracle(check_subsets=False,
                                               check_engine=False))
        assert blind.ok


class TestObservability:
    def test_events_and_metrics(self):
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        metrics = MetricsRegistry()
        report = fuzz(40, seed=SEED,
                      oracle=UnsoundOracle(check_subsets=False),
                      shrink=False, obs=bus, metrics=metrics)
        completed = [e for e in events if isinstance(e, FuzzCompleted)]
        assert len(completed) == 1
        assert completed[0].violations == report.violations
        violations = [e for e in events
                      if isinstance(e, EquivalenceViolation)]
        assert len(violations) == report.violations
        assert all(v.source == "fuzz" for v in violations)
        assert metrics.value("qa.cases") == report.executed
        assert metrics.value("qa.violations") == report.violations

    def test_summary_mentions_the_seed(self):
        report = fuzz(5, seed=123,
                      oracle=DifferentialOracle(check_subsets=False))
        assert "seed=123" in report.summary()
