"""EXPLAIN output: human text and the machine-readable JSON report.

``explain_text`` renders plans, trace and (optionally) a profile
section for humans; ``explain_json`` produces the structured report
shared by the CLI, ``Database.explain_json`` and
``benchmarks/perf`` -- one schema for interactive EXPLAIN and
benchmark ingestion (documented in ``docs/observability.md``).

Top-level JSON shape (``schema_version`` 8)::

    {
      "schema_version": 8,
      "plans":   {"before": {"text", "nodes"}, "after": {"text", "nodes"}},
      "rewrite": {"applications", "checks", "passes", "degraded",
                  "trace": [{"block","rule","path","before","after"}],
                  "summary": {block: {rule: count}}},
      "provenance": {"trace_id",
                     "entries": [{"trace_id","block","rule",
                                  "iteration","path","before_hash",
                                  "after_hash","complexity_delta",
                                  "duration_ms"}]},
      "resilience": {"degraded", "degraded_reason",
                     "rule_failures": [{"block","rule","path",
                                        "error","message"}],
                     "quarantined": [rule],
                     "divergence": [{"block","kind","rules",
                                     "cycle_length","detail"}],
                     "checked": {"validations", "errors",
                                 "rollbacks": [{"block","detail",
                                   "applications_discarded"}]}} or null,
      "server": {"session", "request_class", "queue_wait_ms",
                 "snapshot_version", "shed_total",
                 "errors": [{"error","message", <typed attrs>...}]}
                or null,
      "trace":  {"trace_id", "span_id", "parent_id", "fingerprint",
                 "stages": {stage: milliseconds}},
      "lifecycle": {"query_id", "session", "trace_id", "phase",
                    "source", "timeout_ms", "row_budget",
                    "memory_budget", "degrade", "queue_wait_ms",
                    "worker", "rows_charged", "bytes_reserved",
                    "bytes_peak", "elapsed_ms",
                    "truncated", "cancelled", "cancel_reason"}
                   or null,
      "execution": {"tier": "inprocess" | "pool",
                    "worker": "w<N>" or null,
                    "pool": Supervisor.summary() or null},
      "analyze": {"enabled": bool,
                  "nodes": [{"node","operator","hash","depth","rows",
                             "loops","self_ms","total_ms","bytes"}]},
      "profile": <Profiler.report() or null>,
      "eval":    <EvalStats.snapshot() or null>
    }

``resilience`` is null when the optimizer ran without a resilience
policy (version 2's structural addition over version 1, besides
``rewrite.degraded``; see ``docs/robustness.md``).  ``server`` is null
unless the report came through :class:`repro.server.Server` (version
3's addition; see ``docs/server.md``): its ``errors`` list is the
session's recent typed-error tail, each entry produced by
:func:`repro.errors.error_payload` so ``ServerOverloaded`` carries
``retry_after``, deadline degradations their budget, quarantines their
rule, uniformly.

``provenance`` (version 5's addition; see ``docs/observability.md``)
is this query's slice of the rewrite-provenance ledger: one entry per
rule firing, in firing order, each carrying the short expression
hashes and complexity delta that let it be joined -- by hash or by
``trace_id`` -- against the ``sys.rewrites`` relation the same
firings were recorded into.  The entries *are* the ledger's (the
optimizer derives them once and hands the same objects to both), so
the two views cannot disagree.

``trace`` (version 4's addition; see ``docs/observability.md``) names
the request: ``trace_id`` is the id every event the request emitted
was stamped with on its way to the log sink -- ``grep trace_id
events.jsonl`` recovers the request's whole story, retries and WAL
commit included.  The ids come from the current
:class:`~repro.obs.telemetry.TraceContext` (served requests inherit
the server's; direct ``explain_json`` calls mint a fresh one), and
``stages`` holds per-stage wall-clock milliseconds recovered from the
profile (``phase.*`` timings, evaluator operator time) plus whatever
the caller measured itself (the server adds ``queue_wait_ms``).

``lifecycle`` (version 6's addition; see ``docs/robustness.md``) is
the governed statement's :meth:`~repro.lifecycle.context.QueryContext
.snapshot` -- the same dict a ``sys.queries`` row is built from: the
``q<N>`` id that ``Server.kill`` / CLI ``.kill`` take, the budgets in
force, rows and bytes consumed, and the ``truncated`` flag degrade
mode sets when a budget trip kept a partial result.  Null when the
statement ran ungoverned (no budget knob set and the database not
served).

``execution`` (version 7's addition; see ``docs/robustness.md``)
names the execution tier: ``"inprocess"`` for the classic path,
``"pool"`` when the statement would run on a
:class:`repro.pool.Supervisor` worker process.  ``worker`` is the
``sys.workers`` id when a specific worker executed the statement
(null for explain itself, which always derives its plan in-process),
and ``pool`` is the supervisor's summary (worker/busy/ready counts,
crash and retry totals) or null when no pool is mounted.

``analyze`` (version 8's addition; see ``docs/observability.md``) is
the EXPLAIN ANALYZE section: always present, ``enabled`` false with an
empty ``nodes`` list unless the report was produced with analyze mode
on (``Database.explain_json(analyze=True)``, CLI ``.analyze``).  Each
node is one executed LERA operator with its *actual* row count, loop
count (semi-naive fixpoint bodies re-run once per iteration and merge
into one node), wall time split into self and total milliseconds
(self times sum to the eval stage time within clock tolerance), the
budget-byte estimate of its output, and the same 12-hex term hash
``sys.rewrites`` uses -- so analyzed nodes join against rewrite
provenance.  The same nodes are logged to ``sys.plan_nodes``.
Version 8 also stamps the statement's template ``fingerprint``
(:mod:`repro.esql.fingerprint`, empty outside a fingerprinted
statement) into the ``trace`` section, joining explain output against
``sys.statements``.

``validate_explain`` is the schema's executable documentation: it
returns the list of violations (empty means valid) and is used by the
tests and the benchmark harness.
"""

from __future__ import annotations

from typing import Optional

from repro.core.optimizer import OptimizedQuery
from repro.lera.printer import plan_to_str
from repro.terms.printer import term_to_str
from repro.terms.term import term_size

__all__ = ["explain_text", "explain_json", "validate_explain",
           "EXPLAIN_SCHEMA_VERSION"]

EXPLAIN_SCHEMA_VERSION = 8


def explain_text(optimized: OptimizedQuery, verbose: bool = False,
                 profile: Optional[dict] = None) -> str:
    """Render an optimization outcome for humans.

    ``profile`` is a :meth:`~repro.obs.profile.Profiler.report` dict;
    when given (the CLI's ``.profile on`` mode) a profile section with
    per-rule and per-block telemetry is appended.
    """
    lines = [
        "== plan before rewriting "
        f"({term_size(optimized.typed)} nodes) ==",
        plan_to_str(optimized.typed),
        "",
        "== plan after rewriting "
        f"({term_size(optimized.final)} nodes) ==",
        plan_to_str(optimized.final),
        "",
    ]
    if optimized.trace:
        lines.append(
            f"== {optimized.applications} rule application(s) =="
        )
        for entry in optimized.trace:
            if verbose:
                lines.append(str(entry))
            else:
                lines.append(
                    f"  [{entry.block}] {entry.rule} at {list(entry.path)}"
                )
    else:
        lines.append("(no rules fired)")
    summary = optimized.rewrite_result.summary()
    if summary:
        lines.append("")
        lines.append("== per-block summary ==")
        for block, rules in summary.items():
            fired = ", ".join(
                f"{rule} x{count}" for rule, count in sorted(rules.items())
            )
            lines.append(f"  {block}: {fired}")
    resilience = optimized.rewrite_result.resilience
    if resilience is not None:
        lines.extend(_resilience_section(resilience))
    if profile is not None:
        lines.extend(_profile_section(profile))
    return "\n".join(lines)


def _resilience_section(report) -> list[str]:
    """Render a ResilienceReport when anything noteworthy happened."""
    data = report.as_dict()
    interesting = (
        data["degraded"] or data["rule_failures"] or data["divergence"]
        or data["checked"]["rollbacks"] or data["checked"]["validations"]
    )
    if not interesting:
        return []
    lines = ["", "== resilience =="]
    if data["degraded"]:
        lines.append(
            f"  degraded: best-so-far plan "
            f"({data['degraded_reason']} exhausted)"
        )
    for failure in data["rule_failures"]:
        lines.append(
            f"  rule failure: {failure['rule']} in {failure['block']} "
            f"({failure['error']}: {failure['message']})"
        )
    if data["quarantined"]:
        lines.append(
            "  quarantined: " + ", ".join(data["quarantined"])
        )
    for item in data["divergence"]:
        lines.append(
            f"  divergence: {item['kind']} in {item['block']} "
            f"by {', '.join(item['rules'])}"
        )
    checked = data["checked"]
    if checked["validations"]:
        lines.append(
            f"  checked: {checked['validations']} validation(s), "
            f"{len(checked['rollbacks'])} rollback(s)"
        )
        for rollback in checked["rollbacks"]:
            lines.append(
                f"    rolled back {rollback['block']}: "
                f"{rollback['detail']}"
            )
    return lines


def _profile_section(profile: dict) -> list[str]:
    lines = ["", "== profile =="]
    rules = profile.get("rules", {})
    if rules:
        lines.append("  per-rule (attempts / hits / fired / total ms):")
        for name, row in sorted(rules.items()):
            seconds = row.get("seconds", {})
            total_ms = seconds.get("total", 0.0) * 1e3 \
                if isinstance(seconds, dict) else 0.0
            lines.append(
                f"    {name}: {row.get('attempts', 0)} / "
                f"{row.get('hits', 0)} / {row.get('fired', 0)} / "
                f"{total_ms:.3f}"
            )
    blocks = profile.get("blocks", {})
    if blocks:
        lines.append("  per-block (applications / checks / budget):")
        for name, row in sorted(blocks.items()):
            lines.append(
                f"    {name}: {row.get('applications', 0)} / "
                f"{row.get('checks', 0)} / "
                f"{row.get('budget_consumed', 0)}"
            )
    constraints = profile.get("constraints")
    if constraints:
        lines.append(
            f"  constraints: {constraints.get('checks', 0)} checked, "
            f"{constraints.get('holds', 0)} held"
        )
    spans = profile.get("spans", [])
    if spans:
        lines.append("  spans:")
        lines.extend(_render_spans(spans, depth=2))
    return lines


def _render_spans(spans: list[dict], depth: int,
                  max_depth: int = 4) -> list[str]:
    lines = []
    if depth > max_depth:
        return lines
    for span in spans:
        lines.append(
            f"{'  ' * depth}{span['kind']}:{span['name']} "
            f"({span['duration'] * 1e3:.3f} ms)"
        )
        lines.extend(
            _render_spans(span.get("children", []), depth + 1, max_depth)
        )
    return lines


def _trace_section(profile: Optional[dict],
                   trace: Optional[dict] = None) -> dict:
    """The ``trace`` object of the v4 schema.

    Ids and fingerprint come from the ambient :class:`~repro.obs
    .telemetry.TraceContext` -- the server's, or the one
    ``Database.explain_json`` planned the statement under (a fresh one
    is minted for a report built outside both, so the section is
    always well-formed); stage timings are recovered from the
    profile's phase histograms.  ``trace`` lets the
    caller pre-populate stages it measured itself (the server's
    ``queue_wait_ms``).
    """
    from repro.obs.telemetry import TraceContext, current_trace

    context = current_trace()
    if context is None:
        context = TraceContext.new()
    section = context.as_dict()
    stages: dict = dict((trace or {}).get("stages") or {})
    histograms = ((profile or {}).get("metrics") or {}) \
        .get("histograms") or {}
    for name, row in histograms.items():
        if name.startswith("phase.") and name.endswith(".seconds"):
            stage = name[len("phase."):-len(".seconds")]
            stages[stage + "_ms"] = row.get("total", 0.0) * 1e3
    eval_row = histograms.get("eval.op.seconds")
    if eval_row:
        stages["eval_ops_ms"] = eval_row.get("total", 0.0) * 1e3
    section["stages"] = stages
    return section


def explain_json(optimized: OptimizedQuery,
                 profile: Optional[dict] = None,
                 eval_stats=None,
                 server: Optional[dict] = None,
                 trace: Optional[dict] = None,
                 analyze: Optional[list] = None) -> dict:
    """The machine-readable EXPLAIN report (see the module docstring).

    ``profile`` is a :meth:`~repro.obs.profile.Profiler.report` dict
    (or a Profiler, which is reported automatically); ``eval_stats`` an
    :class:`~repro.engine.stats.EvalStats` from executing the plan;
    ``server`` the serving-layer section (filled in by
    :meth:`repro.server.Server.explain_json`, null everywhere else);
    ``trace`` optional extra stage timings (``{"stages": {...}}``)
    merged into the trace section; ``analyze`` the per-operator actuals
    (an :meth:`~repro.engine.analyze.AnalyzeCollector.snapshot` node
    list) when the plan was executed in analyze mode.
    """
    if profile is not None and hasattr(profile, "report"):
        profile = profile.report()
    result = optimized.rewrite_result
    trace_section = _trace_section(profile, trace)
    from repro.lifecycle.context import current_context
    context = current_context()
    lifecycle = context.snapshot() if context is not None else None
    return {
        "schema_version": EXPLAIN_SCHEMA_VERSION,
        "plans": {
            "before": {
                "text": plan_to_str(optimized.typed),
                "nodes": term_size(optimized.typed),
            },
            "after": {
                "text": plan_to_str(optimized.final),
                "nodes": term_size(optimized.final),
            },
        },
        "rewrite": {
            "applications": result.applications,
            "checks": result.checks,
            "passes": result.passes,
            "degraded": result.degraded,
            "trace": [
                {
                    "block": entry.block,
                    "rule": entry.rule,
                    "path": list(entry.path),
                    "before": term_to_str(entry.before),
                    "after": term_to_str(entry.after),
                }
                for entry in result.trace
            ],
            "summary": result.summary(),
        },
        "provenance": {
            "trace_id": trace_section["trace_id"],
            "entries": [entry.as_dict()
                        for entry in optimized.provenance],
        },
        "resilience": (result.resilience.as_dict()
                       if result.resilience is not None else None),
        "server": server,
        "trace": trace_section,
        "lifecycle": lifecycle,
        # the default tier; Server.explain_json overrides with the
        # mounted pool's view when one is serving reads
        "execution": {"tier": "inprocess", "worker": None,
                      "pool": None},
        "analyze": {
            "enabled": analyze is not None,
            "nodes": list(analyze) if analyze is not None else [],
        },
        "profile": profile,
        "eval": eval_stats.snapshot() if eval_stats is not None else None,
    }


def validate_explain(report: dict) -> list[str]:
    """Check ``report`` against the documented schema; returns the
    violations (an empty list means the report is valid)."""
    problems: list[str] = []

    def need(container, key, kind, where):
        if not isinstance(container, dict) or key not in container:
            problems.append(f"{where}: missing key {key!r}")
            return None
        value = container[key]
        if kind is not None and not isinstance(value, kind):
            problems.append(
                f"{where}.{key}: expected {kind}, got {type(value)}"
            )
            return None
        return value

    if need(report, "schema_version", int, "report") not in (
            None, EXPLAIN_SCHEMA_VERSION):
        problems.append("report.schema_version: unknown version")
    plans = need(report, "plans", dict, "report")
    if plans is not None:
        for side in ("before", "after"):
            plan = need(plans, side, dict, "plans")
            if plan is not None:
                need(plan, "text", str, f"plans.{side}")
                nodes = need(plan, "nodes", int, f"plans.{side}")
                if nodes is not None and nodes <= 0:
                    problems.append(f"plans.{side}.nodes: must be positive")
    rewrite = need(report, "rewrite", dict, "report")
    if rewrite is not None:
        for key in ("applications", "checks", "passes"):
            value = need(rewrite, key, int, "rewrite")
            if value is not None and value < 0:
                problems.append(f"rewrite.{key}: negative")
        need(rewrite, "degraded", bool, "rewrite")
        trace = need(rewrite, "trace", list, "rewrite")
        need(rewrite, "summary", dict, "rewrite")
        if trace is not None:
            for i, entry in enumerate(trace):
                for key in ("block", "rule", "path", "before", "after"):
                    need(entry, key, None, f"rewrite.trace[{i}]")
    provenance = need(report, "provenance", dict, "report")
    if provenance is not None:
        prov_trace_id = need(provenance, "trace_id", str, "provenance")
        entries = need(provenance, "entries", list, "provenance")
        if entries is not None:
            rewrite_trace = (report.get("rewrite") or {}).get("trace")
            if isinstance(rewrite_trace, list) and \
                    len(entries) != len(rewrite_trace):
                problems.append(
                    "provenance.entries: count disagrees with "
                    "rewrite.trace"
                )
            for i, entry in enumerate(entries):
                where = f"provenance.entries[{i}]"
                need(entry, "block", str, where)
                need(entry, "rule", str, where)
                need(entry, "path", str, where)
                entry_trace = need(entry, "trace_id", str, where)
                if entry_trace is not None and prov_trace_id is not \
                        None and entry_trace != prov_trace_id:
                    problems.append(
                        f"{where}.trace_id: disagrees with "
                        f"provenance.trace_id"
                    )
                iteration = need(entry, "iteration", int, where)
                if iteration is not None and iteration != i:
                    problems.append(
                        f"{where}.iteration: not the firing order"
                    )
                for key in ("before_hash", "after_hash"):
                    value = need(entry, key, str, where)
                    if value is not None and not _is_hex(value, 12):
                        problems.append(
                            f"{where}.{key}: not 12 hex chars"
                        )
                need(entry, "complexity_delta", int, where)
                duration = need(entry, "duration_ms", (int, float),
                                where)
                if duration is not None and duration < 0:
                    problems.append(f"{where}.duration_ms: negative")
    if "resilience" not in report:
        problems.append("report: missing key 'resilience'")
    elif report["resilience"] is not None:
        resilience = report["resilience"]
        need(resilience, "degraded", bool, "resilience")
        for key in ("rule_failures", "quarantined", "divergence"):
            need(resilience, key, list, "resilience")
        for i, failure in enumerate(resilience.get("rule_failures", [])):
            for key in ("block", "rule", "error", "message"):
                need(failure, key, None, f"resilience.rule_failures[{i}]")
        for i, report_ in enumerate(resilience.get("divergence", [])):
            for key in ("block", "kind", "rules", "cycle_length"):
                need(report_, key, None, f"resilience.divergence[{i}]")
        checked = need(resilience, "checked", dict, "resilience")
        if checked is not None:
            for key in ("validations", "errors"):
                value = need(checked, key, int, "resilience.checked")
                if value is not None and value < 0:
                    problems.append(f"resilience.checked.{key}: negative")
            need(checked, "rollbacks", list, "resilience.checked")
    if "server" not in report:
        problems.append("report: missing key 'server'")
    elif report["server"] is not None:
        server = report["server"]
        need(server, "session", str, "server")
        request_class = need(server, "request_class", str, "server")
        if request_class is not None and \
                request_class not in ("read", "write"):
            problems.append(
                "server.request_class: not 'read' or 'write'"
            )
        wait = need(server, "queue_wait_ms", (int, float), "server")
        if wait is not None and wait < 0:
            problems.append("server.queue_wait_ms: negative")
        version = need(server, "snapshot_version", int, "server")
        if version is not None and version < 0:
            problems.append("server.snapshot_version: negative")
        shed = need(server, "shed_total", int, "server")
        if shed is not None and shed < 0:
            problems.append("server.shed_total: negative")
        errors = need(server, "errors", list, "server")
        if errors is not None:
            for i, entry in enumerate(errors):
                for key in ("error", "message"):
                    need(entry, key, str, f"server.errors[{i}]")
                if isinstance(entry, dict) and \
                        entry.get("error") == "ServerOverloaded" and \
                        "retry_after" not in entry:
                    problems.append(
                        f"server.errors[{i}]: ServerOverloaded "
                        f"without retry_after"
                    )
    trace = need(report, "trace", dict, "report")
    if trace is not None:
        trace_id = need(trace, "trace_id", str, "trace")
        if trace_id is not None and not _is_hex(trace_id, 32):
            problems.append("trace.trace_id: not 32 hex chars")
        span_id = need(trace, "span_id", str, "trace")
        if span_id is not None and not _is_hex(span_id, 16):
            problems.append("trace.span_id: not 16 hex chars")
        if "parent_id" not in trace:
            problems.append("trace: missing key 'parent_id'")
        elif trace["parent_id"] is not None and \
                not _is_hex(trace["parent_id"], 16):
            problems.append("trace.parent_id: not null or 16 hex chars")
        fingerprint = need(trace, "fingerprint", str, "trace")
        if fingerprint:
            if not _is_hex(fingerprint, 12):
                problems.append(
                    "trace.fingerprint: not empty or 12 hex chars"
                )
        stages = need(trace, "stages", dict, "trace")
        if stages is not None:
            for stage, value in stages.items():
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(
                        f"trace.stages.{stage}: not a non-negative number"
                    )
    if "lifecycle" not in report:
        problems.append("report: missing key 'lifecycle'")
    elif report["lifecycle"] is not None:
        lifecycle = report["lifecycle"]
        query_id = need(lifecycle, "query_id", str, "lifecycle")
        if query_id is not None and not (
                query_id.startswith("q") and query_id[1:].isdigit()):
            problems.append("lifecycle.query_id: not of the form q<N>")
        need(lifecycle, "session", str, "lifecycle")
        need(lifecycle, "phase", str, "lifecycle")
        for key in ("degrade", "truncated", "cancelled"):
            need(lifecycle, key, bool, "lifecycle")
        for key in ("rows_charged", "bytes_reserved", "bytes_peak"):
            value = need(lifecycle, key, int, "lifecycle")
            if value is not None and value < 0:
                problems.append(f"lifecycle.{key}: negative")
        elapsed = need(lifecycle, "elapsed_ms", (int, float),
                       "lifecycle")
        if elapsed is not None and elapsed < 0:
            problems.append("lifecycle.elapsed_ms: negative")
        wait = need(lifecycle, "queue_wait_ms", (int, float),
                    "lifecycle")
        if wait is not None and wait < 0:
            problems.append("lifecycle.queue_wait_ms: negative")
        need(lifecycle, "worker", str, "lifecycle")
        for key in ("timeout_ms", "row_budget", "memory_budget"):
            if key not in lifecycle:
                problems.append(f"lifecycle: missing key {key!r}")
            elif lifecycle[key] is not None and (
                    not isinstance(lifecycle[key], (int, float))
                    or lifecycle[key] < 0):
                problems.append(
                    f"lifecycle.{key}: not null or a non-negative number"
                )
    execution = need(report, "execution", dict, "report")
    if execution is not None:
        tier = need(execution, "tier", str, "execution")
        if tier is not None and tier not in ("inprocess", "pool"):
            problems.append(
                "execution.tier: not 'inprocess' or 'pool'"
            )
        if "worker" not in execution:
            problems.append("execution: missing key 'worker'")
        elif execution["worker"] is not None and \
                not isinstance(execution["worker"], str):
            problems.append("execution.worker: not null or a string")
        if "pool" not in execution:
            problems.append("execution: missing key 'pool'")
        elif execution["pool"] is not None:
            pool = execution["pool"]
            for key in ("workers", "busy", "ready", "dispatched",
                        "retries", "crashes", "restarts"):
                value = need(pool, key, int, "execution.pool")
                if value is not None and value < 0:
                    problems.append(f"execution.pool.{key}: negative")
            state = need(pool, "state", str, "execution.pool")
            if state is not None and state not in (
                    "running", "broken", "stopped"):
                problems.append(
                    "execution.pool.state: not running/broken/stopped"
                )
    analyze = need(report, "analyze", dict, "report")
    if analyze is not None:
        enabled = need(analyze, "enabled", bool, "analyze")
        nodes = need(analyze, "nodes", list, "analyze")
        if enabled is False and nodes:
            problems.append("analyze.nodes: non-empty while disabled")
        for i, node in enumerate(nodes or []):
            where = f"analyze.nodes[{i}]"
            need(node, "operator", str, where)
            node_hash = need(node, "hash", str, where)
            if node_hash is not None and not _is_hex(node_hash, 12):
                problems.append(f"{where}.hash: not 12 hex chars")
            for key in ("node", "depth", "rows", "loops", "bytes"):
                value = need(node, key, int, where)
                if value is not None and value < 0:
                    problems.append(f"{where}.{key}: negative")
            for key in ("self_ms", "total_ms"):
                value = need(node, key, (int, float), where)
                if value is not None and value < 0:
                    problems.append(f"{where}.{key}: negative")
    if "profile" not in report:
        problems.append("report: missing key 'profile'")
    elif report["profile"] is not None:
        profile = report["profile"]
        for key in ("rules", "blocks", "methods", "spans", "metrics"):
            need(profile, key, None, "profile")
        for rule, row in profile.get("rules", {}).items():
            attempts = row.get("attempts", 0)
            hits = row.get("hits", 0)
            if attempts < hits:
                problems.append(
                    f"profile.rules.{rule}: attempts < hits"
                )
        problems.extend(_validate_spans(profile.get("spans", []),
                                        "profile.spans"))
    if "eval" not in report:
        problems.append("report: missing key 'eval'")
    elif report["eval"] is not None:
        for key, value in report["eval"].items():
            if not isinstance(value, int) or value < 0:
                problems.append(f"eval.{key}: not a non-negative int")
    return problems


def _is_hex(value: str, length: int) -> bool:
    if not isinstance(value, str) or len(value) != length:
        return False
    try:
        int(value, 16)
    except ValueError:
        return False
    return True


def _validate_spans(spans, where: str) -> list[str]:
    problems = []
    if not isinstance(spans, list):
        return [f"{where}: not a list"]
    for i, span in enumerate(spans):
        here = f"{where}[{i}]"
        if not isinstance(span, dict):
            problems.append(f"{here}: not an object")
            continue
        for key in ("name", "kind", "duration", "children"):
            if key not in span:
                problems.append(f"{here}: missing key {key!r}")
        duration = span.get("duration", 0.0)
        if not isinstance(duration, (int, float)) or duration < 0:
            problems.append(f"{here}.duration: negative or non-numeric")
        problems.extend(
            _validate_spans(span.get("children", []), here + ".children")
        )
    return problems
