"""The qa generators: deterministic, valid, and biased as promised."""

from random import Random

from repro.engine.database import Database
from repro.qa.query_gen import random_case
from repro.qa.schema_gen import (Case, TableSpec, ViewSpec, random_rows,
                                 random_schema)


class TestDeterminism:
    def test_same_seed_same_schema(self):
        a = random_schema(Random(42))
        b = random_schema(Random(42))
        assert a == b

    def test_same_seed_same_case(self):
        case_a, spec_a = random_case(Random(99))
        case_b, spec_b = random_case(Random(99))
        assert case_a == case_b
        assert spec_a == spec_b

    def test_different_seeds_differ(self):
        queries = {random_case(Random(seed))[0].query
                   for seed in range(30)}
        assert len(queries) > 20  # near-total diversity


class TestValidity:
    def test_setup_scripts_execute(self):
        for seed in range(25):
            case, __ = random_case(Random(seed))
            db = Database()
            db.execute(case.setup_script())
            db.close()

    def test_queries_execute_unrewritten(self):
        for seed in range(25):
            case, __ = random_case(Random(seed))
            db = Database()
            db.execute(case.setup_script())
            db.query(case.query, rewrite=False)
            db.close()

    def test_key_rows_are_unique(self):
        rows = random_rows(Random(3), ["INT", "INT"], max_rows=10,
                           unique_on=(0,))
        heads = [r[0] for r in rows]
        assert len(heads) == len(set(heads))


class TestBias:
    def test_rewrite_shapes_appear(self):
        """The generator's whole point: the biased shapes occur often
        enough for a few hundred cases to exercise every rule family."""
        texts = [random_case(Random(seed))[0].query
                 for seed in range(300)]
        joined = "\n".join(texts)
        for marker in ("DISTINCT", " OR ", " IN ", "EXISTS", "NOT",
                       "UNION", "GROUP BY", "+ 0", "* 1"):
            assert marker in joined, f"no case used {marker!r}"


class TestViews:
    """Views are part of the case: defined in the setup script, read
    by the query like tables (ROADMAP item 0a hid behind their absence
    for eleven PRs)."""

    GENERATED = [random_case(Random(seed)) for seed in range(300)]
    CASES = [case for case, __ in GENERATED]

    def test_every_view_shape_appears(self):
        views = [v for case in self.CASES for v in case.views]
        assert any(" UNION " not in v.body for v in views)      # plain
        assert any(" UNION " in v.body and not v.body.startswith("(")
                   for v in views)                              # union
        assert any(v.body.startswith("(") for v in views)       # recursive
        assert any(v.name == "V1" and "FROM V0" in v.body
                   for v in views)                              # stacked

    def test_queries_read_views_narrower_and_joined(self):
        narrower = joined = 0
        for case, spec in self.GENERATED:
            read = [v for v in case.views if v.name in spec.tables]
            for view in read:
                used = sum(name in item for name, __ in view.columns
                           for item in spec.select)
                narrower += 0 < used < len(view.columns)
            joined += len(read) == 1 and len(spec.tables) == 2
        assert narrower > 10 and joined > 10

    def test_view_cases_roundtrip_and_old_files_still_load(self):
        case = next(c for c in self.CASES if c.views)
        assert Case.from_dict(case.to_dict()) == case
        # a corpus file written before views existed has no such key
        plain = next(c for c in self.CASES if not c.views)
        assert "views" not in plain.to_dict()
        assert Case.from_dict(plain.to_dict()) == plain

    def test_view_ddl(self):
        view = ViewSpec("V0", (("V0C0", "INT"), ("V0C1", "CHAR")),
                        "SELECT A, B FROM T0 WHERE A > 1")
        assert view.ddl() == ("CREATE VIEW V0 (V0C0, V0C1) AS "
                              "SELECT A, B FROM T0 WHERE A > 1")


class TestCaseModel:
    def test_roundtrip(self):
        case, __ = random_case(Random(7))
        again = Case.from_dict(case.to_dict())
        assert again == case

    def test_ddl_renders_key(self):
        table = TableSpec(name="T", columns=(("A", "INT"), ("B", "CHAR")),
                          key=("A",), rows=((1, "a"),))
        assert table.ddl() == \
            "TABLE T (A : INT, B : CHAR, PRIMARY KEY (A))"
        assert table.insert() == "INSERT INTO T VALUES (1, 'a')"
