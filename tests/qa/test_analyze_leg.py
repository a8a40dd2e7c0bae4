"""The analyze oracle leg: instrumentation is a pure observer.

A fixed-seed fuzz run re-executes every generated case in EXPLAIN
ANALYZE mode and demands bag-identical results, and per operator the
rows and loops a fresh compile of the plan shows -- the CI pin that the
per-operator wrappers can never change what a query returns, nor
observe the shared tree otherwise than a plan's own.
"""

from repro.qa.harness import fuzz
from repro.qa.oracle import DifferentialOracle
from repro.qa.schema_gen import Case, TableSpec

# the fixed CI seed for this leg (any regression reproduces from it)
SEED = 20260808


def _case(query: str) -> Case:
    table = TableSpec(
        name="T",
        columns=(("A", "INT"), ("B", "INT")),
        key=(),
        rows=((1, 10), (2, 20), (3, 30)),
    )
    return Case(tables=(table,), query=query)


class TestAnalyzeOracle:
    def test_fixed_seed_run_is_clean(self):
        oracle = DifferentialOracle(check_subsets=False,
                                    check_analyze=True)
        report = fuzz(20, seed=SEED, oracle=oracle, shrink=False)
        assert report.ok, "\n".join(
            str(f.divergence) for f in report.findings
        )
        assert report.executed > 0

    def test_clean_case_passes(self):
        oracle = DifferentialOracle(check_subsets=False,
                                    check_analyze=True)
        assert oracle.check(_case("SELECT A FROM T WHERE B > 5")) \
            is None

    def test_leg_observes_operators(self):
        # the leg flags a run whose collector saw nothing -- proof the
        # analyze path actually engaged rather than silently no-opping
        oracle = DifferentialOracle(check_subsets=False,
                                    check_analyze=True)
        divergence = oracle.check(_case("SELECT A FROM T"))
        assert divergence is None  # observed > 0, bags equal

    def test_actuals_unlike_a_fresh_compile_are_caught(self, monkeypatch):
        """A hit that runs its shared tree twice returns the right bag,
        but its collector counts two loops per operator where a fresh
        compile of the plan counts one: an ``analyze`` divergence."""
        from repro.engine.plans import PlanCache
        original = PlanCache.get

        def twice(self, key):
            found = original(self, key)
            if found is None:
                return None

            def root(frame, fix_rows, fix_env, run=found.root):
                run(frame, fix_rows, fix_env)
                frame.shared.clear()
                return run(frame, fix_rows, fix_env)
            return found._replace(root=root)

        monkeypatch.setattr(PlanCache, "get", twice)
        oracle = DifferentialOracle(check_subsets=False,
                                    check_analyze=True)
        divergence = oracle.check(_case("SELECT A FROM T WHERE B > 5"))
        assert divergence is not None and divergence.mode == "analyze"
        assert "fresh compile" in divergence.detail

    def test_a_frame_that_drops_its_collector_is_caught(self, monkeypatch):
        """Every run observing nothing leaves both collectors empty, so
        their actuals agree; the leg still flags the empty one."""
        from repro.engine.evaluate import Frame
        original = Frame.__init__

        def blind(self, stats, context=None, params=(), analyze=None,
                  bus=None):
            original(self, stats, context, params, None, bus)

        monkeypatch.setattr(Frame, "__init__", blind)
        oracle = DifferentialOracle(check_subsets=False,
                                    check_analyze=True)
        divergence = oracle.check(_case("SELECT A FROM T WHERE B > 5"))
        assert divergence is not None and divergence.mode == "analyze"
        assert divergence.detail == "collector observed no operators"
