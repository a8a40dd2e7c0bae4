"""The EXPLAIN report's declared schema (``repro.core.explain.REPORT``
and ``INVARIANTS``): every declared kind and every named invariant
catches a report broken in its way, every report shape the system
produces validates, the prose schema of ``docs/observability.md`` is
the declaration's, and the report's stages read the statement's clock."""

import copy
import json
import re
from pathlib import Path

import pytest

from repro import Database
from repro.core.explain import INVARIANTS, REPORT, validate_explain
from repro.engine.options import StatementOptions
from repro.errors import ReproError, ServerOverloaded
from repro.pool import PoolConfig
from repro.server import AdmissionLimits, Server, SessionSettings

from tests.generated_plans import generated_queries
from tests.resilience.chaos import SALE_QUERY, bad_comparison_rule, sale_db

DOCS = Path(__file__).resolve().parents[2] / "docs" / "observability.md"


@pytest.fixture(scope="module")
def full_report():
    """One report with every section filled in: served through a
    session whose read was shed once, rewritten in checked mode with a
    block rolled back, executed in analyze mode."""
    db = sale_db()
    db.optimizer.rewriter.add_rule(bad_comparison_rule(), "simplify")
    server = Server(db, limits=AdmissionLimits(
        max_readers=1, max_queue=0, queue_timeout_ms=5.0))
    try:
        server.open_session("s", settings=SessionSettings(checked=True))
        with server.admission.admit("read"):
            with pytest.raises(ServerOverloaded):
                server.query(SALE_QUERY, session="s")
        report = server.explain_json(SALE_QUERY, session="s", analyze=True)
    finally:
        server.close()
    assert validate_explain(report) == []
    assert report["resilience"]["checked"]["rollbacks"]
    assert report["provenance"]["entries"] and report["lifecycle"]
    return report


def where(path) -> str:
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                   for p in path).lstrip(".")


def mutated(report, path, value):
    out = copy.deepcopy(report)
    holder = out
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = value
    return out


# -- every declared kind ------------------------------------------------------

def category(kind) -> str:
    if isinstance(kind, dict):
        return "open record" if ... in kind else "record"
    if isinstance(kind, list):
        return "list"
    if isinstance(kind, str):
        return kind
    if kind[0] == "or" and (isinstance(kind[-1], (dict, list))
                            or kind[-1][0] == "map"):
        return "nullable section"
    return kind[0]


def declared_categories(kind=REPORT, path=()) -> set:
    if any(kind is outer for outer in path):
        return {"recursive"}
    found = {category(kind)}
    if isinstance(kind, dict):
        inner = [k for key, k in kind.items() if key is not ...]
    elif isinstance(kind, list):
        inner = kind
    elif isinstance(kind, tuple) and kind[0] in ("or", "map"):
        inner = kind[1:]
    else:
        inner = []
    for k in inner:
        found |= declared_categories(k, path + (kind,))
    return found


# category -> (a field of that kind, a value it must refuse)
BROKEN_FIELDS = {
    "str": (("plans", "before", "text"), 7),
    "bool": (("rewrite", "degraded"), "no"),
    "int": (("provenance", "entries", 0, "complexity_delta"), 1.5),
    "count": (("rewrite", "checks"), -1),
    "positive": (("analyze", "nodes", 0, "loops"), 0),  # loops >= 1
    "number": (("lifecycle", "elapsed_ms"), -0.5),
    "qid": (("lifecycle", "query_id"), "17"),
    "object": (("profile", "metrics"), []),
    "hex": (("trace", "span_id"), "f00"),
    "enum": (("execution", "tier"), "gpu"),
    "or": (("trace", "fingerprint"), "nothex"),
    "nullable section": (("server",), "yes"),
    "map": (("rewrite", "summary"), ["merge"]),
    "list": (("rewrite", "trace"), {}),
    "record": (("plans", "before"), {"text": ""}),
    "open record": (("server", "errors", 0), {"error": "ServerOverloaded"}),
    "recursive": (("profile", "spans", 0, "children", 0, "duration"), -1.0),
}


def test_every_declared_kind_has_a_broken_field():
    assert set(BROKEN_FIELDS) == declared_categories()


@pytest.mark.parametrize("kind", sorted(BROKEN_FIELDS))
def test_a_field_of_each_kind_is_flagged(full_report, kind):
    path, value = BROKEN_FIELDS[kind]
    problems = validate_explain(mutated(full_report, path, value))
    assert any(p.startswith(where(path)) for p in problems), problems


def test_an_undeclared_field_is_flagged(full_report):
    report = mutated(full_report, ("plans", "before", "color"), "red")
    assert validate_explain(report) == \
        ["plans.before: unexpected key 'color'"]


def test_a_missing_section_is_flagged(full_report):
    report = copy.deepcopy(full_report)
    del report["analyze"]
    assert validate_explain(report) == ["report: missing key 'analyze'"]


# -- every named invariant ----------------------------------------------------

def _bump(*path):
    def breaks(report):
        holder = report
        for step in path[:-1]:
            holder = holder[step]
        holder[path[-1]] += 1
    return breaks


BROKEN_INVARIANTS = {
    "rewrite.applications == len(rewrite.trace)":
        _bump("rewrite", "applications"),
    "provenance.entries[i] records rewrite.trace[i]":
        lambda r: r["provenance"]["entries"][0].update(rule="other"),
    "provenance.entries[*].trace_id == provenance.trace_id == "
    "trace.trace_id":
        lambda r: r["provenance"].update(trace_id="0" * 32),
    "analyze.nodes == [] unless analyze.enabled":
        lambda r: r["analyze"].update(enabled=False),
    "ServerOverloaded in server.errors carries retry_after":
        lambda r: r["server"]["errors"][0].pop("retry_after"),
    "profile.rules[*]: attempts >= hits >= fired":
        _bump("profile", "rules", "search_merge", "fired"),
    "profile.rules[*]: attempts == hits + misses":
        _bump("profile", "rules", "search_merge", "attempts"),
}


def test_every_invariant_has_a_breaking_edit():
    assert list(BROKEN_INVARIANTS) == list(INVARIANTS)


@pytest.mark.parametrize("name", list(INVARIANTS))
def test_each_invariant_is_enforced(full_report, name):
    report = copy.deepcopy(full_report)
    BROKEN_INVARIANTS[name](report)
    assert list(INVARIANTS[name](report))
    assert validate_explain(report)


# -- every report shape tier-1 can produce ------------------------------------

def test_generated_statements_validate_plain_executed_and_analyzed():
    checked = 0
    for db, query in generated_queries():
        for mode in ({}, {"execute": True}, {"analyze": True}):
            try:
                report = db.explain_json(query, **mode)
            except ReproError:
                continue  # the statement fails to run: no report
            assert validate_explain(report) == [], (query, mode)
            checked += 1
    assert checked >= 500


def test_served_reports_validate():
    for db, query in generated_queries(cases=8):
        server = Server(db)
        try:
            report = server.explain_json(query, execute=True)
        except ReproError:
            continue  # the statement fails to run: no report
        finally:
            server.close()
        assert report["server"] is not None
        assert validate_explain(report) == [], query


def test_a_report_with_the_pool_section_validates():
    db = Database()
    db.execute("CREATE TABLE T (A : INT, B : INT)")
    db.execute("INSERT INTO T VALUES (1, 10), (2, 20)")
    server = Server(db)
    try:
        pool = server.enable_pool(1, config=PoolConfig(
            workers=1, monitor_interval_s=0.02))
        assert pool.wait_ready(timeout_s=60.0, workers=1)
        report = server.explain_json("SELECT A FROM T WHERE B = 10")
    finally:
        server.close()
    assert report["execution"]["pool"] is not None
    assert validate_explain(report) == []


def test_checked_degraded_and_governed_reports_validate(full_report):
    degraded = sale_db().explain_json(
        SALE_QUERY, options=StatementOptions(timeout_ms=1e-9))
    assert degraded["rewrite"]["degraded"]
    governed = sale_db(statement_timeout_ms=60_000).explain_json(
        SALE_QUERY, execute=True)
    assert governed["lifecycle"]["query_id"].startswith("q")
    for report in (full_report, degraded, governed):
        assert validate_explain(report) == []
        assert validate_explain(json.loads(json.dumps(report))) == []


# -- the prose schema is the declaration ---------------------------------------

def docs_section() -> str:
    text = DOCS.read_text(encoding="utf-8")
    return text.split("\n## The EXPLAIN JSON schema", 1)[1] \
        .split("\n## ", 1)[0]


def docs_example() -> dict:
    block = docs_section().split("```jsonc\n", 1)[1].split("```", 1)[0]
    return json.loads(re.sub(r"\s*//[^\n]*", "", block))


def key_mismatches(kind, example, at="report", path=()):
    """Where the example's keys differ from the declaration's: every
    record compared key for key, a list through its first example."""
    if any(kind is outer for outer in path):
        return
    if isinstance(kind, tuple) and kind[0] == "or":
        kind = kind[-1]
    if isinstance(kind, dict):
        declared = {key for key in kind if key is not ...}
        shown = set(example) if isinstance(example, dict) else set()
        if shown != declared and not (... in kind and shown > declared):
            yield f"{at}: documented {sorted(shown)}, declared " \
                  f"{sorted(declared)}"
        for key in declared & shown:
            yield from key_mismatches(kind[key], example[key],
                                      f"{at}.{key}", path + (kind,))
    elif isinstance(kind, list) and isinstance(kind[0], dict):
        if not example:
            if not any(kind[0] is outer for outer in path):
                yield f"{at}: no example entry"
            return
        yield from key_mismatches(kind[0], example[0], f"{at}[0]",
                                  path + (kind,))


def test_the_documented_keys_are_the_declared_keys():
    assert list(key_mismatches(REPORT, docs_example())) == []


def test_the_documented_example_is_a_valid_report():
    assert validate_explain(docs_example()) == []


def test_the_documented_invariants_are_the_declared_ones():
    listed = docs_section().split("\n### Invariants", 1)[1] \
        .split("\n### ", 1)[0]
    assert re.findall(r"^\* `([^`]+)`", listed, re.M) == list(INVARIANTS)


# -- the stages read the statement's clock ------------------------------------

def path_db() -> Database:
    db = Database()
    db.execute("TABLE EDGE (Src : NUMERIC, Dst : NUMERIC)")
    db.execute("INSERT INTO EDGE VALUES " + ", ".join(
        f"({i}, {i + 1})" for i in range(1, 61)))
    db.execute("CREATE VIEW PATH (Src, Dst) AS ( SELECT Src, Dst FROM EDGE "
               "UNION SELECT P.Src, E.Dst FROM PATH P, EDGE E "
               "WHERE P.Dst = E.Src )")
    return db


def walk(spans):
    for span in spans:
        yield span
        yield from walk(span["children"])


def test_eval_spans_sit_under_the_evaluate_phase():
    report = path_db().explain_json("SELECT Dst FROM PATH WHERE Src = 1",
                                    analyze=True)
    spans = report["profile"]["spans"]
    (phase,) = [s for s in spans
                if (s["kind"], s["name"]) == ("phase", "evaluate")]
    evals = [s for s in walk(spans) if s["kind"] == "eval"]
    assert evals
    assert [s for s in walk([phase]) if s["kind"] == "eval"] == evals
    root = min(report["analyze"]["nodes"], key=lambda n: n["depth"])
    assert report["trace"]["stages"]["evaluate_ms"] >= root["total_ms"]


def test_a_plain_query_times_its_firings_and_its_whole_statement():
    db = path_db()
    db.query("SELECT Dst FROM PATH WHERE Src = 1")
    durations = dict(db.query(
        "SELECT Rule, DurationMs FROM sys.rewrites").rows)
    assert durations["fix_alexander"] > 0
    heat = dict(db.query(
        "SELECT Rule, DurationMsTotal FROM sys.rule_heat").rows)
    assert heat["fix_alexander"] > 0
    (rewrite_ms, eval_ms, total_ms), = [
        row[1:] for row in db.query(
            "SELECT Template, RewriteMs, EvalMs, TotalMs "
            "FROM sys.statements").rows if "PATH" in row[0]]
    assert total_ms > rewrite_ms + eval_ms
