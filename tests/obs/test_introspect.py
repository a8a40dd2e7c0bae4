"""The ``sys.*`` introspection catalog and the provenance ledger.

Covers the virtual-relation protocol end to end: every system
relation is SELECTable through the normal ESQL pipeline, the reserved
namespace rejects user DDL/DML, the rewrite-provenance ledger reflects
earlier statements in the session, sys reads never touch the writer
lock, and the explain v5 ``provenance`` section round-trips through
``validate_explain``.
"""

import json

import pytest

from repro import Database
from repro.adt.types import INT
from repro.core.explain import (EXPLAIN_SCHEMA_VERSION, explain_json,
                                validate_explain)
from repro.core.rewriter import term_hash
from repro.errors import CatalogError, TranslationError
from repro.obs.introspect import SYS_RELATIONS
from repro.obs.telemetry import TraceContext, use_trace
from repro.server import Server

_HEX = set("0123456789abcdef")

# fires push/semijoin_prune: the canonical "query that rewrites"
_EXISTS = ("SELECT T.A FROM T WHERE EXISTS "
           "(SELECT A FROM T WHERE B = 10)")


def _db():
    db = Database()
    db.execute("TABLE T (A : NUMERIC, B : NUMERIC)")
    db.execute("INSERT INTO T VALUES (1, 10), (2, 20), (3, 10)")
    return db


class TestCatalogProtocol:
    def test_every_sys_relation_selects_through_the_pipeline(self):
        db = _db()
        for name in SYS_RELATIONS:
            result = db.query(f"SELECT * FROM {name}")
            schema = db.catalog.relation_schema(name.upper())
            for row in result.rows:
                assert len(row) == len(schema)

    def test_sys_relations_lists_itself_and_user_tables(self):
        db = _db()
        rows = db.query(
            "SELECT Name, Kind, Columns, Rows FROM sys.relations"
        ).rows
        by_name = {name: (kind, cols, card)
                   for name, kind, cols, card in rows}
        assert by_name["T"] == ("table", 2, 3)
        # the catalog is self-describing: every sys.* appears, as a
        # virtual with unknown (-1) cardinality
        for name in SYS_RELATIONS:
            kind, __, card = by_name[name.upper()]
            assert kind == "virtual"
            assert card == -1

    def test_sys_relations_join_with_user_data(self):
        db = _db()
        # a genuine join between a virtual and a base table
        rows = db.query(
            "SELECT R.Name, T.A FROM sys.relations R, T "
            "WHERE R.Name = 'T' AND T.B = 10"
        ).rows
        assert sorted(rows) == [("T", 1), ("T", 3)]

    def test_view_over_a_sys_relation(self):
        db = _db()
        db.execute(
            "CREATE VIEW TABLES (Name) AS "
            "SELECT Name FROM sys.relations WHERE Kind = 'table'"
        )
        assert db.query("SELECT Name FROM TABLES").rows == [("T",)]

    def test_last_segment_resolves_column_qualifiers(self):
        db = _db()
        rows = db.query(
            "SELECT relations.Name FROM sys.relations "
            "WHERE relations.Kind = 'table'"
        ).rows
        assert rows == [("T",)]

    def test_serverless_tier_serves_empty_not_errors(self):
        db = _db()
        for name in ("sys.metrics", "sys.histograms",
                     "sys.sessions", "sys.slow_queries"):
            assert db.query(f"SELECT * FROM {name}").rows == []


class TestReservedNamespace:
    def test_create_table_rejected(self):
        db = _db()
        with pytest.raises(CatalogError, match="reserved"):
            db.execute("TABLE sys.mine (A : NUMERIC)")

    def test_create_view_rejected(self):
        db = _db()
        with pytest.raises(CatalogError, match="reserved"):
            db.execute("CREATE VIEW sys.v (A) AS SELECT A FROM T")

    def test_dml_rejected_as_read_only(self):
        db = _db()
        for stmt in (
            "INSERT INTO sys.metrics VALUES ('x', 1)",
            "DELETE FROM sys.metrics WHERE Value = 0",
            "UPDATE sys.metrics SET Value = 0 WHERE Name = 'x'",
            "DROP TABLE sys.metrics",
        ):
            with pytest.raises(TranslationError, match="read-only"):
                db.execute(stmt)

    def test_direct_registration_outside_sys_rejected(self):
        db = _db()
        with pytest.raises(CatalogError):
            db.catalog.register_virtual(
                "MINE", [("A", INT)], lambda: [])


class TestProvenanceLedger:
    def test_simple_select_fires_nothing(self):
        db = _db()
        db.query("SELECT A FROM T WHERE B = 10")
        assert db.ledger.recorded == 0
        assert db.query("SELECT * FROM sys.rewrites").rows == []

    def test_rewrites_reflect_earlier_statements(self):
        db = _db()
        db.query(_EXISTS)
        rows = db.query(
            "SELECT Block, Rule, Iteration, BeforeHash, AfterHash, "
            "ComplexityDelta FROM sys.rewrites"
        ).rows
        assert rows, "the EXISTS query must have fired a rule"
        for block, rule, iteration, before, after, delta in rows:
            assert block and rule
            assert iteration >= 0
            assert set(before) <= _HEX and len(before) == 12
            assert set(after) <= _HEX and len(after) == 12
            assert before != after
            assert isinstance(delta, int)
        assert ("push", "semijoin_prune") in {
            (block, rule) for block, rule, *__ in rows
        }

    def test_rule_heat_aggregates_across_statements(self):
        db = _db()
        db.query(_EXISTS)
        db.query(_EXISTS)
        heat = {
            (block, rule): (fired, total)
            for block, rule, fired, total, __, ___ in db.query(
                "SELECT * FROM sys.rule_heat"
            ).rows
        }
        fired, total = heat[("push", "semijoin_prune")]
        assert fired == 2
        assert total < 0  # pruning shrinks the term

    def test_ledger_is_a_bounded_ring(self):
        db = _db()
        capacity = db.ledger._ring.maxlen
        for __ in range(5):
            db.query(_EXISTS)
        assert len(db.ledger.entries()) <= capacity
        assert db.ledger.recorded >= 5

    def test_trace_stamping_under_a_request_context(self):
        db = _db()
        context = TraceContext.new()
        with use_trace(context):
            db.query(_EXISTS)
        stamped = {
            trace for (trace,) in db.query(
                "SELECT TraceId FROM sys.rewrites"
            ).rows
        }
        assert stamped == {context.trace_id}

    def test_ledger_survives_optimizer_regeneration(self):
        db = _db()
        db.query(_EXISTS)
        before = db.ledger.recorded
        db.regenerate_optimizer()
        assert db.ledger.recorded == before
        db.query(_EXISTS)
        assert db.ledger.recorded > before


class TestSnapshotSemantics:
    def test_self_join_sees_one_point_in_time(self):
        """Two scans of the same virtual inside one evaluate() must
        materialize the producer exactly once."""
        db = _db()
        calls = []
        db.catalog.register_virtual(
            "sys.probe", [("N", INT)],
            lambda: calls.append(1) or [(len(calls),)],
            "test probe",
        )
        rows = db.query(
            "SELECT A.N, B.N FROM sys.probe A, sys.probe B"
        ).rows
        assert len(calls) == 1
        assert rows == [(1, 1)]

    def test_separate_statements_rematerialize(self):
        db = _db()
        calls = []
        db.catalog.register_virtual(
            "sys.probe", [("N", INT)],
            lambda: calls.append(1) or [(len(calls),)],
            "test probe",
        )
        assert db.query("SELECT N FROM sys.probe").rows == [(1,)]
        assert db.query("SELECT N FROM sys.probe").rows == [(2,)]


class TestDurabilityRelations:
    def test_wal_and_snapshots(self, tmp_path):
        db = Database(path=str(tmp_path / "wal.db"))
        db.execute("TABLE T (A : NUMERIC)")
        db.execute("INSERT INTO T VALUES (1), (2)")
        wal = db.query(
            "SELECT Lsn, Kind, Statement FROM sys.wal"
        ).rows
        assert [lsn for lsn, __, ___ in wal] == list(
            range(1, len(wal) + 1)
        )
        assert any("INSERT INTO T" in stmt for __, ___, stmt in wal)

        before = db.query(
            "SELECT Present FROM sys.snapshots"
        ).rows
        db.checkpoint()
        after = db.query(
            "SELECT Present, Bytes, LastLsn FROM sys.snapshots"
        ).rows
        assert before == [(False,)]
        assert len(after) == 1
        present, size, last_lsn = after[0]
        assert present is True
        assert size > 0
        assert last_lsn >= 2
        db.close()

    def test_ephemeral_database_has_no_wal(self):
        db = _db()
        assert db.query("SELECT * FROM sys.wal").rows == []


class TestServerTier:
    def test_serving_upgrades_the_four_backed_relations(self):
        db = _db()
        server = Server(db)
        session = server.open_session("alice")
        server.query("SELECT A FROM T", session=session.id)

        metrics = dict(server.query(
            "SELECT Name, Value FROM sys.metrics"
        ).rows)
        assert metrics.get("server.requests.read", 0) >= 1

        sessions = server.query("SELECT Id FROM sys.sessions").rows
        assert ("alice",) in sessions

        hist = server.query(
            "SELECT Name, Kind, Count FROM sys.histograms"
        ).rows
        assert any(count >= 1 for __, ___, count in hist)
        server.close()

    def test_a_served_database_counts_itself_exactly(self):
        """Eleven requests (ten reads over three templates, one write)
        read back through ``sys.*`` -- the dogfooding scenario with its
        counters pinned."""
        db = Database()
        db.execute("""
        TABLE T (A : NUMERIC, B : NUMERIC);
        CREATE VIEW SMALL (A) AS SELECT A FROM T WHERE B < 50
        """)
        db.execute("INSERT INTO T VALUES " + ", ".join(
            f"({i}, {(i * 13) % 100})" for i in range(60)))
        server = Server(db)
        for query, times in (("SELECT A FROM T WHERE B = 10", 5),
                             (_EXISTS, 3), ("SELECT A FROM SMALL", 2)):
            for __ in range(times):
                server.query(query)
        server.execute("INSERT INTO T VALUES (1000, 7)")

        metrics = dict(server.query(
            "SELECT Name, Value FROM sys.metrics").rows)
        assert metrics["server.requests.read"] == 10
        assert metrics["server.requests.write"] == 1
        kinds = [kind for __, kind in server.query(
            "SELECT Name, Kind FROM sys.relations").rows]
        assert (len(kinds), kinds.count("virtual")) == (16, 14)
        assert db.ledger.recorded == 7
        assert sorted(server.query(
            "SELECT Block, Rule, Fired, DeltaTotal FROM sys.rule_heat"
        ).rows) == [("merge", "search_merge", 2, -14),
                    ("push", "semijoin_prune", 3, -3),
                    ("simplify", "lt_flip", 2, 0)]
        server.close()

    def test_sys_reads_never_touch_the_writer_lock(self):
        db = _db()
        server = Server(db)

        def poisoned():  # pragma: no cover - must never run
            raise AssertionError(
                "a sys.* read acquired the writer lock"
            )

        server.guard._lock.acquire_write = poisoned
        for name in SYS_RELATIONS:
            server.query(f"SELECT * FROM {name}")
        server.close()

    def test_slow_queries_surface_as_rows(self):
        db = _db()
        server = Server(db, slow_query_ms=0.0)
        server.query("SELECT A FROM T")
        rows = server.query(
            "SELECT TraceId, Class, DurationMs FROM sys.slow_queries"
        ).rows
        assert rows
        trace, klass, duration = rows[0]
        assert set(trace) <= _HEX and len(trace) == 32
        assert klass == "read"
        assert duration >= 0.0
        server.close()


class TestExplainProvenance:
    def test_v5_provenance_round_trips(self):
        db = _db()
        report = db.explain_json(_EXISTS)
        assert report["schema_version"] == EXPLAIN_SCHEMA_VERSION
        assert validate_explain(report) == []

        provenance = report["provenance"]
        entries = provenance["entries"]
        assert entries, "a rewriting query must carry provenance"
        for entry in entries:
            assert set(entry["before_hash"]) <= _HEX
            assert len(entry["before_hash"]) == 12
            assert entry["trace_id"] == provenance["trace_id"]

        # the report survives a JSON round trip intact
        assert validate_explain(
            json.loads(json.dumps(report))
        ) == []

    def test_provenance_matches_the_ledger(self):
        db = _db()
        report = db.explain_json(_EXISTS)
        reported = [
            (e["block"], e["rule"], e["before_hash"], e["after_hash"])
            for e in report["provenance"]["entries"]
        ]
        # explain did not execute under the server, but the ledger
        # still recorded the same firings with the same hashes
        ledgered = [
            (e.block, e.rule, e.before_hash, e.after_hash)
            for e in db.ledger.entries()[-len(reported):]
        ]
        assert reported == ledgered

    def test_a_direct_explain_and_sys_rewrites_share_one_trace_id(
            self, monkeypatch):
        """The firings are derived once, under the trace context the
        report names -- minted for a direct call -- so the two views
        join on TraceId, and nothing is hashed a second time."""
        import importlib
        module = importlib.import_module("repro.core.rewriter")
        hashed = []
        real = module.term_hash
        monkeypatch.setattr(
            module, "term_hash",
            lambda term: hashed.append(term) or real(term))
        db = _db()
        report = db.explain_json(_EXISTS)
        trace_id = report["trace"]["trace_id"]
        firings = len(report["provenance"]["entries"])
        assert firings and len(trace_id) == 32
        assert len(hashed) == 2 * firings  # before + after, once
        assert report["provenance"]["trace_id"] == trace_id
        rows = db.query("SELECT TraceId, Rule FROM sys.rewrites").rows
        assert [rule for tid, rule in rows if tid == trace_id] == \
            [e["rule"] for e in report["provenance"]["entries"]]
        assert validate_explain(report) == []
        # a second direct call is a second request
        assert db.explain_json(_EXISTS)["trace"]["trace_id"] != trace_id

    def test_validation_rejects_tampered_provenance(self):
        db = _db()
        report = db.explain_json(_EXISTS)

        bad = json.loads(json.dumps(report))
        bad["provenance"]["entries"][0]["before_hash"] = "nothex!!!!!!"
        assert validate_explain(bad)

        bad = json.loads(json.dumps(report))
        bad["provenance"]["entries"].pop()
        assert validate_explain(bad)

        bad = json.loads(json.dumps(report))
        bad["provenance"]["entries"][0]["iteration"] = 99
        assert validate_explain(bad)

    def test_non_rewriting_query_has_empty_provenance(self):
        db = _db()
        report = db.explain_json("SELECT A FROM T WHERE B = 10")
        assert report["provenance"]["entries"] == []
        assert validate_explain(report) == []


def test_term_hash_is_stable_and_short():
    from repro.terms.term import num
    term = num(42)
    assert term_hash(term) == term_hash(num(42))
    assert len(term_hash(term)) == 12
    assert set(term_hash(term)) <= _HEX


class TestLedgerHashesOnDemand:
    def _entries(self, n, nodes_each):
        from repro.core.rewriter import ProvenanceEntry
        from repro.terms.term import mk_fun, num
        term = mk_fun("P", [num(i) for i in range(nodes_each // 2 - 1)])
        return [ProvenanceEntry("t", "b", f"r{i}", i, "", term, term,
                                nodes_each, 0, 0.0) for i in range(n)]

    def test_nothing_is_hashed_until_it_is_read(self, monkeypatch):
        import repro.core.rewriter as module
        hashed = []
        real = module.term_hash
        monkeypatch.setattr(
            module, "term_hash",
            lambda term: hashed.append(term) or real(term))
        db = _db()
        db.query(_EXISTS)
        entries = db.ledger.entries()
        assert entries and not hashed  # the statement path hashed nothing
        assert db.ledger.heat()  # ... and sys.rule_heat needs no hash
        assert not hashed
        rows = db.query("SELECT BeforeHash, AfterHash FROM sys.rewrites").rows
        assert len(hashed) == 2 * len(entries)
        assert rows[0] == (real(entries[0].before), real(entries[0].after))
        db.query("SELECT BeforeHash FROM sys.rewrites")
        assert len(hashed) == 2 * len(entries)  # kept, not recomputed

    def test_the_ring_pins_a_bounded_amount_of_plan(self):
        from repro.core.rewriter import RewriteLedger, term_hash
        ledger = RewriteLedger(capacity=64)
        each = RewriteLedger.KEEP_NODES // 16
        entries = self._entries(100, each)
        expected = term_hash(entries[0].before)
        ledger.record(entries)
        ring = ledger.entries()
        assert len(ring) == 64
        kept = [e for e in ring if e.before is not None]
        assert len(kept) <= 16 and ledger._kept == sum(e.nodes for e in kept)
        # released or not, every entry still answers with its hashes
        assert {e.before_hash for e in ring} == {expected}
        # room freed by eviction is lent again
        ledger.record(self._entries(64, each))
        assert any(e.before is not None for e in ledger.entries())
        assert ledger._kept <= RewriteLedger.KEEP_NODES
