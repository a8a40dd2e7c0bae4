"""Extension-bundle tests: the database-implementor API."""

import pytest

from repro import Database, Extension
from repro.adt.registry import FunctionDef
from repro.adt.values import SetValue
from repro.errors import ReproError


@pytest.fixture
def db():
    d = Database()
    d.execute("TABLE GEO (Id : NUMERIC, Lat : NUMERIC, Lon : NUMERIC)")
    d.execute("INSERT INTO GEO VALUES (1, 10, 20), (2, 30, 40)")
    return d


class TestBuilder:
    def test_fluent_chaining(self):
        ext = (Extension("demo")
               .function(FunctionDef("F2", lambda a, c: 0, 1))
               .rule("simplify", "r: NOISE(x) --> x")
               .constraint(
                   "ic: F(x) / ISA(x, NUMERIC) --> F(x) AND x >= 0 /"
               )
               .method("M", 1, lambda *a: None)
               .predicate("P", lambda *a: True))
        assert len(ext.functions) == 1
        assert len(ext.rule_texts) == 1
        assert len(ext.integrity_constraints) == 1

    def test_rule_validated_eagerly(self):
        with pytest.raises(ReproError):
            Extension("bad").rule("simplify", "P(x) --> Q(y)")


class TestInstallation:
    def test_function_usable_in_queries(self, db):
        def manhattan(args, ctx):
            return abs(args[0]) + abs(args[1])
        db.install(Extension("geo").function(
            FunctionDef("MANHATTAN", manhattan, 2)
        ))
        rows = db.query("SELECT MANHATTAN(Lat, Lon) FROM GEO "
                        "WHERE Id = 1").rows
        assert rows == [(30,)]

    def test_pure_function_constant_folded(self, db):
        db.install(Extension("geo").function(
            FunctionDef("HALF", lambda a, c: a[0] / 2, 1)
        ))
        opt = db.optimize("SELECT Id FROM GEO WHERE Lat = HALF(40)")
        from repro.terms.printer import term_to_str
        assert "20" in term_to_str(opt.final)
        assert "HALF" not in term_to_str(opt.final)

    def test_impure_function_not_folded(self, db):
        db.install(Extension("geo").function(
            FunctionDef("TICKET", lambda a, c: 7, 1, pure=False)
        ))
        opt = db.optimize("SELECT Id FROM GEO WHERE Lat = TICKET(1)")
        from repro.terms.printer import term_to_str
        assert "TICKET" in term_to_str(opt.final)

    def test_rule_installed_into_named_block(self, db):
        db.install(Extension("alg").rule(
            "simplify", "abs_idem: MYABS(MYABS(x)) --> MYABS(x)"
        ).function(FunctionDef("MYABS", lambda a, c: abs(a[0]), 1)))
        opt = db.optimize("SELECT Id FROM GEO WHERE MYABS(MYABS(Lat)) = 10")
        assert "abs_idem" in opt.rewrite_result.rules_fired()

    def test_constraint_installed(self, db):
        db.execute("TYPE Kind ENUMERATION OF ('a', 'b')")
        db.execute("TABLE K (Id : NUMERIC, Kk : Kind)")
        db.install(Extension("k").constraint(
            "ic: F(x) / ISA(x, Kind) --> "
            "F(x) AND MEMBER(x, MAKESET('a', 'b')) /"
        ))
        result, stats, __ = db.query_with_stats(
            "SELECT Id FROM K WHERE Kk = 'z'"
        )
        assert result.rows == [] and stats.tuples_scanned == 0

    def test_method_and_predicate_installed(self, db):
        from repro.terms.term import num
        ext = (Extension("m")
               .function(FunctionDef(
                   "ULTIMATE", lambda a, c: 0, 1, pure=False,
               ))
               .rule("simplify",
                     "ult: ULTIMATE(x) / SURE(x) --> a / FETCH(x, a)")
               .method("FETCH", 2,
                       lambda inst, raw, b, ctx: {raw[1].name: num(42)})
               .predicate("SURE", lambda args, b, ctx: True))
        db.install(ext)
        opt = db.optimize("SELECT Id FROM GEO WHERE Lat = ULTIMATE(0)")
        from repro.terms.printer import term_to_str
        assert "42" in term_to_str(opt.final)

    def test_custom_collection_function(self, db):
        db.execute("TABLE BAGS (Id : NUMERIC, Vals : SET OF NUMERIC)")
        db.execute("INSERT INTO BAGS VALUES (1, SET(3, 9)), (2, SET(1))")

        def spread(args, ctx):
            coll = args[0]
            return max(coll.elements) - min(coll.elements)
        db.install(Extension("stats").function(
            FunctionDef("SPREAD", spread, 1)
        ))
        rows = db.query("SELECT Id FROM BAGS WHERE SPREAD(Vals) = 6").rows
        assert rows == [(1,)]

    @pytest.mark.parametrize("rule_texts", [
        [("simplify", "F(x --> ")],
        [("no_such_block", "r: NOISE(x) --> x")],
    ], ids=["unparsable-rule", "unknown-block"])
    def test_a_refused_install_changes_nothing(self, db, rule_texts):
        registry = db.catalog.registry
        optimizer = db.optimizer
        version = db.catalog.plan_version.value
        constraints = list(db.catalog.integrity_constraints)
        bundle = Extension(
            "bad", functions=[FunctionDef("TWICE", lambda a, c: 2 * a[0], 1)],
            rule_texts=rule_texts,
            integrity_constraints=[
                "ic: F(x) / ISA(x, NUMERIC) --> F(x) AND x >= 0 /"])
        with pytest.raises(ReproError):
            db.install(bundle)
        assert registry.lookup_or_none("TWICE", 1) is None
        assert db.catalog.integrity_constraints == constraints
        assert db.catalog.plan_version.value == version
        assert db.optimizer is optimizer
