"""Optimizer pipeline tests."""

import pytest

from repro.adt.types import NUMERIC
from repro.core.explain import explain_text
from repro.core.optimizer import Optimizer
from repro.engine.catalog import Catalog
from repro.terms.parser import parse_term
from repro.terms.printer import term_to_str


@pytest.fixture
def cat():
    c = Catalog()
    c.define_table("R", [("A", NUMERIC), ("B", NUMERIC)])
    return c


class TestPipeline:
    def test_stages_recorded(self, cat):
        optimizer = Optimizer(cat)
        q = parse_term("SEARCH(LIST(R), #1.1 = 2 + 3, LIST(#1.2))")
        out = optimizer.optimize(q)
        assert out.original == q
        assert "5" in term_to_str(out.final)

    def test_rewrite_disabled_still_typechecks(self, cat):
        optimizer = Optimizer(cat)
        q = parse_term("SEARCH(LIST(R), #1.1 = 2 + 3, LIST(#1.2))")
        out = optimizer.optimize(q, rewrite=False)
        assert out.applications == 0
        assert "2 + 3" in term_to_str(out.final)

    def test_schema_computed(self, cat):
        optimizer = Optimizer(cat)
        q = parse_term("SEARCH(LIST(R), true, LIST(#1.2))")
        out = optimizer.optimize(q)
        assert out.schema.names == ("B",)

    def test_final_pass_normalises_rule_additions(self, cat):
        # a custom rule introduces user-syntax field access; the final
        # typecheck pass must leave a valid, evaluable plan
        from repro.adt.types import REAL
        ts = cat.type_system
        ts.define_tuple("Point", [("ABS", REAL)])
        cat.define_table("M", [("P", ts.lookup("Point"))])
        from repro.rules.semantic import compile_integrity_constraint
        cat.integrity_constraints.append(compile_integrity_constraint(
            "ic: F(x) / ISA(x, Point) --> F(x) AND ABS(x) > 0 /"
        ))
        optimizer = Optimizer(cat)
        q = parse_term(
            "SEARCH(LIST(M), PROJECT(#1.1, 'ABS') = 2, LIST(#1.1))"
        )
        out = optimizer.optimize(q)
        # no bare ABS(...) call survives in the final plan
        assert "ABS(#" not in term_to_str(out.final)


class TestFinalPassSkipped:
    """The final type-checking pass exists for what fired rules add;
    when the rewrite hands back the typed term itself it is skipped,
    which is sound only because type checking is idempotent."""

    def test_typecheck_is_idempotent_on_generated_queries(self):
        from random import Random

        from repro.lera.typecheck import typecheck
        from repro.qa.harness import case_seed
        from repro.qa.oracle import DifferentialOracle
        from repro.qa.query_gen import random_case

        oracle = DifferentialOracle(antipattern=True)
        checked = 0
        for index in range(150):
            case, __ = random_case(Random(case_seed(20260808, index)))
            db = oracle.build_db(case)
            try:
                try:
                    term = db._translate_single(case.query)
                except Exception:
                    continue  # a generator miss
                typed, schema = typecheck(term, db.catalog)
                again, schema_again = typecheck(typed, db.catalog)
                assert again == typed, case.query
                assert schema_again == schema, case.query
                # ... and on what the rules leave behind
                final = db.optimizer.optimize(term).final
                assert typecheck(final, db.catalog)[0] == final, case.query
            finally:
                db.close()
            checked += 1
        assert checked >= 140

    def test_no_second_pass_when_nothing_fired(self, cat, monkeypatch):
        from repro.core import optimizer as module
        from repro.obs.bus import EventBus
        calls = []
        real = module.typecheck
        monkeypatch.setattr(
            module, "typecheck",
            lambda term, catalog: calls.append(term) or real(term, catalog))
        quiet = parse_term("SEARCH(LIST(R), #1.1 = 2, LIST(#1.2))")
        firing = parse_term("SEARCH(LIST(R), #1.1 = 2 + 3, LIST(#1.2))")
        listening = EventBus()
        listening.subscribe(lambda event: None)
        assert listening  # a bus without subscribers is the bus-less path
        for obs in (None, listening):
            optimizer = Optimizer(cat)
            del calls[:]
            out = optimizer.optimize(quiet, obs=obs)
            assert out.applications == 0 and len(calls) == 1
            assert out.final is out.typed is out.rewritten
            assert out.schema.names == ("B",)
            del calls[:]
            out = optimizer.optimize(firing, obs=obs)
            assert out.applications and len(calls) == 2
            assert out.schema.names == ("B",)
            del calls[:]
            out = optimizer.optimize(firing, rewrite=False, obs=obs)
            assert len(calls) == 1 and out.final is out.typed


class TestExplain:
    def test_explain_sections(self, cat):
        optimizer = Optimizer(cat)
        q = parse_term(
            "SEARCH(LIST(SEARCH(LIST(R), #1.1 = 1, LIST(#1.1, #1.2))), "
            "true, LIST(#1.2))"
        )
        out = optimizer.optimize(q)
        text = explain_text(out)
        assert "plan before rewriting" in text
        assert "plan after rewriting" in text
        assert "search_merge" in text

    def test_explain_verbose(self, cat):
        optimizer = Optimizer(cat)
        q = parse_term(
            "SEARCH(LIST(SEARCH(LIST(R), #1.1 = 1, LIST(#1.1, #1.2))), "
            "true, LIST(#1.2))"
        )
        text = explain_text(optimizer.optimize(q), verbose=True)
        assert "==>" in text
