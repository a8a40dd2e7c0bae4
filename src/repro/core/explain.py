"""EXPLAIN as data: the report, its declared schema, and its text form.

``explain_json`` builds the machine-readable report of one optimized
(and optionally executed) statement -- the one artifact behind
``Database.explain_json``, ``Server.explain_json``, the CLI and
``benchmarks/perf``.  ``REPORT`` declares every section and field of
that report with its kind, ``INVARIANTS`` names the facts that tie
fields together, and ``validate_explain`` checks a report against both.
``explain_text`` and the section renderers print a report, so text
EXPLAIN, the CLI's ``.analyze`` / ``.stats`` and the JSON are one
artifact and cannot disagree.

What each field means, and which schema version added it, is written
once: ``docs/observability.md``, "The EXPLAIN JSON schema" (its JSON
block and its invariants list are held equal to ``REPORT`` and
``INVARIANTS`` by ``tests/core/test_explain_schema.py``).
"""

from __future__ import annotations

from string import hexdigits
from typing import Optional

from repro.core.optimizer import OptimizedQuery
from repro.lera.printer import plan_to_str
from repro.terms.printer import term_to_str
from repro.terms.term import term_size

__all__ = ["explain_text", "explain_json", "validate_explain",
           "profile_section", "analyze_section", "REPORT", "INVARIANTS",
           "EXPLAIN_SCHEMA_VERSION"]

EXPLAIN_SCHEMA_VERSION = 8


# -- the declaration ----------------------------------------------------------
#
# A kind is one of:
#   a leaf name          a key of LEAVES;
#   ("hex", n)           a string of n hex digits;
#   ("enum", v, ...)     one of the values (None reads as null);
#   ("or", k, ..., main) any of the kinds: leaf alternatives first, the
#                        kind that describes the value last;
#   ("map", k)           an object with free keys, every value a k;
#   [k]                  a list of k;
#   {field: k, ...}      a record: exactly these fields (an ``...`` key
#                        lets further fields through).

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# leaf -> (test, what a value must be)
LEAVES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "int": (_is_int, "an int"),
    "count": (lambda v: _is_int(v) and v >= 0, "a non-negative int"),
    "positive": (lambda v: _is_int(v) and v > 0, "a positive int"),
    "number": (lambda v: (_is_int(v) or isinstance(v, float)) and v >= 0,
               "a non-negative number"),
    "qid": (lambda v: isinstance(v, str) and v[:1] == "q"
            and v[1:].isdigit(), "of the form q<N>"),
    "object": (lambda v: isinstance(v, dict), "an object"),
}


def nullable(kind):
    return ("or", ("enum", None), kind)


HASH = ("hex", 12)  # term, plan-node and statement-template hashes
TRACE_ID = ("hex", 32)
SPAN_ID = ("hex", 16)
PLAN = {"text": "str", "nodes": "positive"}
# the profile's span tree: a span's children are spans
SPAN = {"name": "str", "kind": "str", "duration": "number",
        "attrs": "object"}
SPAN["children"] = [SPAN]

REPORT = {
    "schema_version": ("enum", EXPLAIN_SCHEMA_VERSION),
    "plans": {"before": PLAN, "after": PLAN},
    "rewrite": {
        "applications": "count", "checks": "count", "passes": "count",
        "degraded": "bool",
        "trace": [{"block": "str", "rule": "str", "path": ["count"],
                   "before": "str", "after": "str"}],
        "summary": ("map", ("map", "count")),
    },
    "provenance": {
        "trace_id": TRACE_ID,
        "entries": [{
            "trace_id": "str", "block": "str", "rule": "str",
            "iteration": "count", "path": "str",
            "before_hash": HASH, "after_hash": HASH,
            "complexity_delta": "int", "duration_ms": "number",
            "fingerprint": "str",
        }],
    },
    "resilience": nullable({
        "degraded": "bool", "degraded_reason": nullable("str"),
        "rule_failures": [{"block": "str", "rule": "str",
                           "path": ["count"], "error": "str",
                           "message": "str"}],
        "quarantined": ["str"],
        "divergence": [{"block": "str",
                        "kind": ("enum", "oscillation", "growth"),
                        "rules": ["str"], "cycle_length": "count",
                        "detail": "str"}],
        "checked": {"validations": "count", "errors": "count",
                    "rollbacks": [{"block": "str", "detail": "str",
                                   "applications_discarded": "count"}]},
    }),
    "server": nullable({
        "session": "str", "request_class": ("enum", "read", "write"),
        "queue_wait_ms": "number", "snapshot_version": "count",
        "shed_total": "count",
        # repro.errors.error_payload: the typed attributes ride along
        "errors": [{"error": "str", "message": "str", ...: None}],
    }),
    "trace": {
        "trace_id": TRACE_ID, "span_id": SPAN_ID,
        "parent_id": nullable(SPAN_ID),
        "fingerprint": ("or", ("enum", ""), HASH),
        "stages": ("map", "number"),
    },
    "lifecycle": nullable({
        "query_id": "qid", "session": "str", "trace_id": "str",
        "phase": "str", "source": "str",
        "timeout_ms": nullable("number"), "row_budget": nullable("number"),
        "memory_budget": nullable("number"), "degrade": "bool",
        "queue_wait_ms": "number", "worker": "str",
        "rows_charged": "count", "bytes_reserved": "count",
        "bytes_peak": "count", "elapsed_ms": "number",
        "truncated": "bool", "cancelled": "bool",
        "cancel_reason": nullable("str"),
    }),
    "execution": {
        "tier": ("enum", "inprocess", "pool"),
        "worker": nullable("str"),
        "pool": nullable({
            "workers": "count", "busy": "count", "ready": "count",
            "state": ("enum", "running", "broken", "stopped"),
            "dispatched": "count", "retries": "count", "crashes": "count",
            "restarts": "count", "version": "count",
        }),
    },
    "analyze": {
        "enabled": "bool",
        "nodes": [{"node": "count", "operator": "str", "hash": HASH,
                   "depth": "count", "rows": "count", "loops": "positive",
                   "self_ms": "number", "total_ms": "number",
                   "bytes": "count"}],
    },
    "profile": nullable({
        "rules": ("map", "object"), "blocks": ("map", "object"),
        "methods": ("map", "object"), "passes": "count",
        "constraints": {"checks": "count", "holds": "count"},
        "spans": [SPAN], "metrics": "object",
    }),
    "eval": nullable(("map", "count")),
}


def _rewrite_counted(report):
    rewrite = report["rewrite"]
    if rewrite["applications"] != len(rewrite["trace"]):
        yield "rewrite.applications: not len(rewrite.trace)"


def _provenance_follows_trace(report):
    steps = [(i, step["block"], step["rule"])
             for i, step in enumerate(report["rewrite"]["trace"])]
    if steps != [(entry["iteration"], entry["block"], entry["rule"])
                 for entry in report["provenance"]["entries"]]:
        yield "provenance.entries: not one per rewrite.trace step, in order"


def _one_trace_id(report):
    provenance = report["provenance"]
    ids = {provenance["trace_id"]} | {entry["trace_id"]
                                      for entry in provenance["entries"]}
    if ids != {report["trace"]["trace_id"]}:
        yield "provenance: a trace id disagrees with trace.trace_id"


def _analyze_off_is_empty(report):
    if not report["analyze"]["enabled"] and report["analyze"]["nodes"]:
        yield "analyze.nodes: non-empty while disabled"


def _overload_retry_after(report):
    for i, error in enumerate((report["server"] or {}).get("errors", ())):
        if error["error"] == "ServerOverloaded" and \
                "retry_after" not in error:
            yield f"server.errors[{i}]: ServerOverloaded without retry_after"


def _rule_counts(report):
    rules = report["profile"]["rules"] if report["profile"] else {}
    for rule, row in sorted(rules.items()):
        yield (f"profile.rules.{rule}", *(row.get(measure, 0) for measure
                                          in ("attempts", "hits", "misses",
                                              "fired")))


def _hits_ordered(report):
    for where, attempts, hits, __, fired in _rule_counts(report):
        if not attempts >= hits >= fired:
            yield f"{where}: " + ("attempts < hits" if attempts < hits
                                  else "hits < fired")


def _attempts_split(report):
    for where, attempts, hits, misses, __ in _rule_counts(report):
        if attempts != hits + misses:
            yield f"{where}: attempts != hits + misses"


# name -> check; checked once the report has REPORT's shape
INVARIANTS = {
    "rewrite.applications == len(rewrite.trace)": _rewrite_counted,
    "provenance.entries[i] records rewrite.trace[i]":
        _provenance_follows_trace,
    "provenance.entries[*].trace_id == provenance.trace_id == "
    "trace.trace_id": _one_trace_id,
    "analyze.nodes == [] unless analyze.enabled": _analyze_off_is_empty,
    "ServerOverloaded in server.errors carries retry_after":
        _overload_retry_after,
    "profile.rules[*]: attempts >= hits >= fired": _hits_ordered,
    "profile.rules[*]: attempts == hits + misses": _attempts_split,
}


def validate_explain(report: dict) -> list[str]:
    """The violations of ``report`` against ``REPORT`` and, when its
    shape is right, against ``INVARIANTS``; empty means valid."""
    problems: list[str] = []
    _check(REPORT, report, "", problems)
    if not problems:
        for check in INVARIANTS.values():
            problems.extend(check(report))
    return problems


def _check(kind, value, where: str, problems: list) -> None:
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            problems.append(f"{where or 'report'}: not an object")
            return
        for key, field in kind.items():
            if key is ...:
                continue
            if key not in value:
                problems.append(f"{where or 'report'}: missing key {key!r}")
            else:
                _check(field, value[key], f"{where}.{key}".lstrip("."),
                       problems)
        if ... not in kind:
            problems.extend(f"{where or 'report'}: unexpected key {key!r}"
                            for key in value if key not in kind)
    elif isinstance(kind, list):
        if not isinstance(value, list):
            problems.append(f"{where}: not a list")
            return
        for i, item in enumerate(value):
            _check(kind[0], item, f"{where}[{i}]", problems)
    elif kind[0] == "map":
        if not isinstance(value, dict):
            problems.append(f"{where}: not an object")
            return
        for key, item in value.items():
            _check(kind[1], item, f"{where}.{key}", problems)
    elif kind[0] == "or" and (isinstance(kind[-1], (dict, list))
                              or kind[-1][0] == "map"):
        if not any(_holds(alt, value) for alt in kind[1:-1]):
            _check(kind[-1], value, where, problems)
    elif not _holds(kind, value):
        problems.append(f"{where}: not {_describe(kind)}")


def _holds(kind, value) -> bool:
    if isinstance(kind, str):
        return LEAVES[kind][0](value)
    if kind[0] == "hex":
        return isinstance(value, str) and len(value) == kind[1] \
            and all(c in hexdigits for c in value)
    if kind[0] == "enum":
        return value in kind[1:]
    return any(_holds(alt, value) for alt in kind[1:])


def _describe(kind) -> str:
    if isinstance(kind, str):
        return LEAVES[kind][1]
    if kind[0] == "hex":
        return f"{kind[1]} hex chars"
    if kind[0] == "enum":
        return " or ".join("null" if v is None else repr(v)
                           for v in kind[1:])
    return " or ".join(_describe(alt) for alt in kind[1:])


# -- the report ---------------------------------------------------------------

def explain_json(optimized: OptimizedQuery,
                 profile: Optional[dict] = None,
                 eval_stats=None,
                 analyze: Optional[list] = None) -> dict:
    """The machine-readable EXPLAIN report of ``optimized``.

    ``profile`` is a :meth:`~repro.obs.profile.Profiler.report` dict
    (its phase timings become the ``trace`` section's stages);
    ``eval_stats`` an :class:`~repro.engine.stats.EvalStats` from
    executing the plan; ``analyze`` the per-operator actuals (an
    :meth:`~repro.engine.analyze.AnalyzeCollector.snapshot` node list)
    when the plan was executed in analyze mode.  Called inside the
    statement's extent: the ``trace`` and ``lifecycle`` sections read
    the ambient trace and query contexts.  The serving layer fills in
    ``server`` and ``execution`` afterwards.
    """
    from repro.lifecycle.context import current_context
    result = optimized.rewrite_result
    trace = _trace_section(profile)
    context = current_context()
    return {
        "schema_version": EXPLAIN_SCHEMA_VERSION,
        "plans": {
            "before": {"text": plan_to_str(optimized.typed),
                       "nodes": term_size(optimized.typed)},
            "after": {"text": plan_to_str(optimized.final),
                      "nodes": term_size(optimized.final)},
        },
        "rewrite": {
            "applications": result.applications, "checks": result.checks,
            "passes": result.passes, "degraded": result.degraded,
            "trace": [{"block": entry.block, "rule": entry.rule,
                       "path": list(entry.path),
                       "before": term_to_str(entry.before),
                       "after": term_to_str(entry.after)}
                      for entry in result.trace],
            "summary": result.summary(),
        },
        "provenance": {
            "trace_id": trace["trace_id"],
            "entries": [entry.as_dict() for entry in optimized.provenance],
        },
        "resilience": (result.resilience.as_dict()
                       if result.resilience is not None else None),
        "server": None,
        "trace": trace,
        "lifecycle": context.snapshot() if context is not None else None,
        "execution": {"tier": "inprocess", "worker": None, "pool": None},
        "analyze": {"enabled": analyze is not None,
                    "nodes": list(analyze or ())},
        "profile": profile,
        "eval": eval_stats.snapshot() if eval_stats is not None else None,
    }


def _trace_section(profile: Optional[dict]) -> dict:
    """The ambient trace context's ids (a fresh root outside any
    request) plus one stage per ``phase.<stage>.seconds`` histogram of
    the profile: each stage is the one clock reading its ``PhaseEnd``
    carried."""
    from repro.obs.telemetry import TraceContext, current_trace
    section = (current_trace() or TraceContext.new()).as_dict()
    histograms = profile["metrics"]["histograms"] if profile else {}
    section["stages"] = {
        name[len("phase."):-len(".seconds")] + "_ms": row["total"] * 1e3
        for name, row in histograms.items()
        if name.startswith("phase.") and name.endswith(".seconds")
    }
    return section


# -- the text form ------------------------------------------------------------

def explain_text(report: dict, verbose: bool = False) -> str:
    """``report`` for humans: both plans, the rule applications
    (``verbose`` prints each one's terms), the per-block summary, and
    the resilience and profile sections when the report has them."""
    lines = []
    for side in ("before", "after"):
        plan = report["plans"][side]
        lines += [f"== plan {side} rewriting ({plan['nodes']} nodes) ==",
                  plan["text"], ""]
    rewrite = report["rewrite"]
    if rewrite["trace"]:
        lines.append(f"== {rewrite['applications']} rule application(s) ==")
        for step in rewrite["trace"]:
            lines.append(
                f"[{step['block']}/{step['rule']}] at {step['path']}: "
                f"{step['before']}  ==>  {step['after']}" if verbose
                else f"  [{step['block']}] {step['rule']} at {step['path']}")
    else:
        lines.append("(no rules fired)")
    if rewrite["summary"]:
        lines += ["", "== per-block summary =="]
        for block, rules in rewrite["summary"].items():
            fired = ", ".join(f"{rule} x{count}"
                              for rule, count in sorted(rules.items()))
            lines.append(f"  {block}: {fired}")
    if report["resilience"] is not None:
        lines.extend(_resilience_section(report["resilience"]))
    if report["profile"] is not None:
        lines.extend(profile_section(report["profile"]))
    return "\n".join(lines)


def _resilience_section(data: dict) -> list[str]:
    """The ``resilience`` section, when anything noteworthy happened."""
    checked = data["checked"]  # a rollback follows a validation
    if not (data["degraded"] or data["rule_failures"]
            or data["divergence"] or checked["validations"]):
        return []
    lines = ["", "== resilience =="]
    if data["degraded"]:
        lines.append(f"  degraded: best-so-far plan "
                     f"({data['degraded_reason']} exhausted)")
    for failure in data["rule_failures"]:
        lines.append(f"  rule failure: {failure['rule']} in "
                     f"{failure['block']} ({failure['error']}: "
                     f"{failure['message']})")
    if data["quarantined"]:
        lines.append("  quarantined: " + ", ".join(data["quarantined"]))
    for item in data["divergence"]:
        lines.append(f"  divergence: {item['kind']} in {item['block']} "
                     f"by {', '.join(item['rules'])}")
    if checked["validations"]:
        lines.append(f"  checked: {checked['validations']} validation(s), "
                     f"{len(checked['rollbacks'])} rollback(s)")
        for rollback in checked["rollbacks"]:
            lines.append(f"    rolled back {rollback['block']}: "
                         f"{rollback['detail']}")
    return lines


def profile_section(profile: dict) -> list[str]:
    """The ``profile`` section: per-rule and per-block telemetry, the
    constraint counts and the span tree (``.explain`` and ``.stats``
    with ``.profile on``)."""
    lines = ["", "== profile =="]
    if profile["rules"]:
        lines.append("  per-rule (attempts / hits / fired / total ms):")
        for name, row in sorted(profile["rules"].items()):
            seconds = row.get("seconds", {}).get("total", 0.0)
            lines.append(f"    {name}: {row.get('attempts', 0)} / "
                         f"{row.get('hits', 0)} / {row.get('fired', 0)} / "
                         f"{seconds * 1e3:.3f}")
    if profile["blocks"]:
        lines.append("  per-block (applications / checks / budget):")
        for name, row in sorted(profile["blocks"].items()):
            lines.append(f"    {name}: {row.get('applications', 0)} / "
                         f"{row.get('checks', 0)} / "
                         f"{row.get('budget_consumed', 0)}")
    constraints = profile["constraints"]
    lines.append(f"  constraints: {constraints['checks']} checked, "
                 f"{constraints['holds']} held")
    if profile["spans"]:
        lines.append("  spans:")
        lines.extend(_span_lines(profile["spans"], depth=2))
    return lines


def _span_lines(spans: list, depth: int, max_depth: int = 4) -> list[str]:
    if depth > max_depth:
        return []
    lines = []
    for span in spans:
        lines.append(f"{'  ' * depth}{span['kind']}:{span['name']} "
                     f"({span['duration'] * 1e3:.3f} ms)")
        lines.extend(_span_lines(span["children"], depth + 1, max_depth))
    return lines


def analyze_section(report: dict) -> list[str]:
    """The ``analyze`` section as an operator tree (the CLI's
    ``.analyze``): one line per node, then the self-time total."""
    nodes = report["analyze"]["nodes"]
    lines = [f"statement fingerprint "
             f"{report['trace']['fingerprint'] or '(none)'}"]
    for node in nodes:
        lines.append(
            f"  {'  ' * node['depth']}{node['operator']} [{node['hash']}]  "
            f"rows={node['rows']} loops={node['loops']} "
            f"self={node['self_ms']:.3f}ms total={node['total_ms']:.3f}ms "
            f"bytes={node['bytes']}")
    lines.append(f"  {len(nodes)} operator(s), "
                 f"{sum(n['self_ms'] for n in nodes):.3f} ms self-time total")
    return lines
