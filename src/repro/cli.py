"""An interactive ESQL shell.

Run::

    python -m repro                # interactive
    python -m repro script.esql    # execute a file, then exit

Statements end with ``;``.  Dot-commands:

=================  =====================================================
``.explain <q>``   show the plans before/after rewriting plus the trace
``.load <file>``   run an ESQL script file
``.engine hash``   switch to hash joins (also ``nested``)
``.schema``        list relations, views and their columns
``.rules``         show the generated optimizer's rule inventory
``.rewrite on``    toggle rewriting (also ``off``)
``.checked on``    toggle checked mode (also ``off``): every rewrite
                   block is validated against a sampled database and
                   rolled back when its results diverge
``.deadline N``    give every rewrite a deadline of N milliseconds
                   (best-so-far plans past it; ``off`` clears)
``.profile on``    toggle profiling (also ``off``): ``.explain`` and
                   ``.stats`` then include per-rule/per-block telemetry
``.stats <q>``     run a query and print the evaluator work counters
``.fuzz N [S]``    run N randomized differential-equivalence cases
                   (seed S, default 0) against a scratch database:
                   rewritten vs unrewritten answers, leave-one-block-
                   out sweeps; prints any minimized counterexample
``.open PATH``     open (or create) a durable database at PATH: the
                   snapshot is loaded, torn WAL tails are truncated and
                   the remaining statements replayed; prints the
                   recovery summary
``.checkpoint``    install a snapshot and reset the WAL
``.fsck``          run the invariant checker (arity, key index,
                   dangling references, WAL/snapshot agreement)
``.sync on``       fsync the WAL on every commit (also ``off``)
``.serve on``      route statements through the concurrent serving
                   layer (also ``off``/``status``): sessions, reader-
                   writer isolation, admission control
``.sessions``      list serving sessions; ``new [id]`` opens one,
                   ``use <id>`` switches, ``close <id>`` ends one
``.shed``          show admission/shedding stats; ``queue N``,
                   ``readers N``, ``writers N``, ``timeout MS`` tune
                   the limits
``.top [N]``       one dashboard frame of the serving layer: req/s,
                   per-class latency percentiles (p50/p95/p99), queue
                   depth, shed rate, the N (default 10) hottest
                   rewrite rules and the slow-query tail;
                   ``.top [N] by-statement`` ranks the workload by
                   statement fingerprint instead (``sys.statements``)
``.analyze <q>``   EXPLAIN ANALYZE: execute the query with per-operator
                   actuals collected (rows, loops, self/total time,
                   budget bytes) and print the operator tree
``.queries``       in-flight and recent statements (the ``sys.queries``
                   view): id, phase, rows/bytes consumed, elapsed,
                   queue wait and the executing pool worker (if any)
``.workers``       the process-pool execution tier (needs ``.serve
                   on``): ``on`` mounts it, ``off`` unmounts, ``N``
                   resizes to N worker processes, bare/``status``
                   lists the workers (pid, state, restarts)
``.kill <id>``     cancel one in-flight statement by its ``q<N>`` id
``.timeout N``     give every statement a wall-clock budget of N
                   milliseconds, rewrite and evaluation combined
                   (``off`` clears)
``.budget``        per-statement budgets: ``rows N``, ``memory N``
                   (bytes), ``off`` clears both
``.degrade on``    truncate instead of fail when a budget trips (also
                   ``off``): partial results are flagged
``.quit``          leave
=================  =====================================================

The ``.rewrite`` / ``.checked`` / ``.deadline`` / ``.profile`` toggles
-- and the lifecycle knobs ``.timeout`` / ``.budget`` / ``.degrade`` --
are *session* state: they never mutate the shared Database, so two
shells (or serving sessions) over one database cannot leak settings
into each other.

Ctrl-C during a long statement pulls the statement's cancel token (the
same mechanism as ``.kill``): the evaluator unwinds cooperatively at
its next check, the shell prints the typed cancellation error, and the
prompt returns.  Ctrl-C at the prompt just clears any half-typed
statement; only EOF (Ctrl-D) or ``.quit`` leave the shell.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator, Optional

from repro.core.explain import analyze_section, profile_section
from repro.engine.database import Database
from repro.errors import ReproError
from repro.server.session import SessionSettings

__all__ = ["Shell", "main"]

_BANNER = (
    "repro " + "1.0.0" + " -- an extensible rule-based query rewriter\n"
    "ESQL statements end with ';'.  Try .help"
)

_HELP = __doc__.split("Statements end", 1)[1]


class Shell:
    """Line-oriented driver around a Database (testable in isolation)."""

    def __init__(self, db: Optional[Database] = None):
        self._adopt(db or Database())
        # per-shell settings: applied as per-call overrides, never
        # written into the shared Database (see the module docstring)
        self.settings = SessionSettings(rewrite=True)
        self.server = None    # repro.server.Server when .serve on
        self.session = None   # the active serving Session
        self._buffer: list[str] = []

    def _adopt(self, db: Database) -> None:
        """Make ``db`` the shell's database (at start and on ``.open``):
        every interactive statement runs under a QueryContext so
        Ctrl-C / .kill always have a cancel token to pull and
        ``.queries`` has a ledger to print."""
        db.govern_statements = True
        self.db = db

    # legacy aliases (older tests/scripts poke these directly)
    @property
    def rewrite(self) -> bool:
        return self.settings.rewrite is not False

    @rewrite.setter
    def rewrite(self, value: bool) -> None:
        self.settings.rewrite = bool(value)

    @property
    def profile(self) -> bool:
        return self.settings.profile

    @profile.setter
    def profile(self, value: bool) -> None:
        self.settings.profile = bool(value)

    @property
    def serving(self) -> bool:
        return self.server is not None

    # -- statement assembly -------------------------------------------------
    def feed(self, line: str) -> list[str]:
        """Consume one input line; return the outputs it produced."""
        stripped = line.strip()
        if not self._buffer and stripped.startswith("."):
            try:
                return self._dot_command(stripped)
            except ReproError as error:
                # one failing command must not kill the shell
                return [f"error: {error}"]
        self._buffer.append(line)
        if not stripped.endswith(";"):
            return []
        statement = "\n".join(self._buffer)
        self._buffer.clear()
        return self._execute(statement)

    def run(self, lines: Iterable[str]) -> Iterator[str]:
        for line in lines:
            for output in self.feed(line):
                yield output
        if self._buffer:
            for output in self._execute("\n".join(self._buffer)):
                yield output
            self._buffer.clear()

    # -- execution ------------------------------------------------------------
    def _execute(self, statement: str) -> list[str]:
        statement = statement.strip().rstrip(";").strip()
        if not statement:
            return []
        try:
            # one call for every statement: the engine classifies
            # (ast.is_query), so queries come back as results and
            # anything else as nothing
            if self.server is not None:
                results = self.server.execute(
                    statement, session=self.session.id
                )
            else:
                results = self.db.execute(statement,
                                          options=self.settings)
            return [result.to_table() for result in results] or ["ok"]
        except ReproError as error:
            return [f"error: {error}"]

    def cancel_inflight(self, reason: str = "keyboard-interrupt"
                        ) -> list[str]:
        """Pull every in-flight cancel token (the Ctrl-C path);
        returns the cancelled query ids."""
        return self.db.lifecycle.cancel_all(reason)

    def _dot_command(self, line: str) -> list[str]:
        parts = line.split(None, 1)
        command = parts[0].lower()
        argument = parts[1].strip().rstrip(";") if len(parts) > 1 else ""

        if command in (".quit", ".exit"):
            raise SystemExit(0)
        if command == ".help":
            return [_HELP.strip()]
        if command == ".rewrite":
            if argument.lower() in ("on", "off"):
                self.settings.rewrite = argument.lower() == "on"
                return [f"rewriting {'on' if self.rewrite else 'off'}"]
            return [f"rewriting is "
                    f"{'on' if self.rewrite else 'off'}"]
        if command == ".checked":
            if argument.lower() in ("on", "off"):
                self.settings.checked = argument.lower() == "on"
                return [f"checked mode "
                        f"{'on' if self.settings.checked else 'off'}"]
            return [f"checked mode is "
                    f"{'on' if self.settings.checked else 'off'}"]
        if command == ".deadline":
            if argument.lower() in ("off", "none"):
                self.settings.deadline_ms = None
                return ["deadline off"]
            if argument:
                try:
                    value = float(argument)
                except ValueError:
                    return ["usage: .deadline <milliseconds>|off"]
                if value <= 0:
                    return ["usage: .deadline <milliseconds>|off"]
                self.settings.deadline_ms = value
                return [f"deadline {value:g} ms"]
            if self.settings.deadline_ms is None:
                return ["no deadline"]
            return [f"deadline is {self.settings.deadline_ms:g} ms"]
        if command == ".profile":
            if argument.lower() in ("on", "off"):
                self.settings.profile = argument.lower() == "on"
                return [f"profiling {'on' if self.profile else 'off'}"]
            return [f"profiling is "
                    f"{'on' if self.profile else 'off'}"]
        if command == ".timeout":
            if argument.lower() in ("off", "none"):
                self.settings.timeout_ms = None
                return ["statement timeout off"]
            if argument:
                try:
                    value = float(argument)
                except ValueError:
                    return ["usage: .timeout <milliseconds>|off"]
                if value <= 0:
                    return ["usage: .timeout <milliseconds>|off"]
                self.settings.timeout_ms = value
                return [f"statement timeout {value:g} ms"]
            if self.settings.timeout_ms is None:
                return ["no statement timeout"]
            return [f"statement timeout is "
                    f"{self.settings.timeout_ms:g} ms"]
        if command == ".budget":
            return self._budget_command(argument)
        if command == ".degrade":
            if argument.lower() in ("on", "off"):
                self.settings.degrade = argument.lower() == "on"
                return [f"degrade mode "
                        f"{'on' if self.settings.degrade else 'off'}"]
            return [f"degrade mode is "
                    f"{'on' if self.settings.degrade else 'off'}"]
        if command == ".kill":
            if not argument:
                return ["usage: .kill <query-id>   (see .queries)"]
            if self.db.kill(argument):
                return [f"{argument} cancelled"]
            return [f"no such in-flight statement: {argument}"]
        if command == ".queries":
            return self._queries_command()
        if command == ".workers":
            return self._workers_command(argument)
        if command == ".serve":
            return self._serve_command(argument)
        if command == ".sessions":
            return self._sessions_command(argument)
        if command == ".shed":
            return self._shed_command(argument)
        if command == ".top":
            return self._top_command(argument)
        if command == ".analyze":
            return self._analyze_command(argument)
        if command == ".schema":
            lines = []
            catalog = self.db.catalog
            for name in catalog.relation_names():
                schema = catalog.relation_schema(name)
                cols = ", ".join(
                    f"{n} : {t.name}" for n, t in schema
                )
                key = catalog.primary_key_of(name)
                suffix = f"  [key: {key}]" if key else ""
                lines.append(f"table {name} ({cols}){suffix}")
            for name in catalog.view_names():
                view = catalog.view(name)
                cols = ", ".join(view.schema.names)
                kind = "recursive view" if view.recursive else "view"
                lines.append(f"{kind} {name} ({cols})")
            for name in catalog.virtual_names():
                virtual = catalog.virtual(name)
                cols = ", ".join(virtual.schema.names)
                lines.append(f"system {name.lower()} ({cols})")
            return lines or ["(empty catalog)"]
        if command == ".rules":
            inventory = self.db.optimizer.rewriter.rule_inventory()
            return [
                f"{block}: {', '.join(rules)}"
                for block, rules in inventory.items()
            ]
        if command == ".engine":
            if argument.lower() in ("hash", "nested"):
                self.db.hash_joins = argument.lower() == "hash"
                return [f"join strategy: {argument.lower()}"]
            return [f"join strategy: "
                    f"{'hash' if self.db.hash_joins else 'nested'}"]
        if command == ".open":
            if not argument:
                return ["usage: .open <path>"]
            try:
                # recovery runs inside the constructor; a corrupt or
                # truncated file surfaces as a ReproError (handled by
                # the caller's guard), never a traceback.  The shell's
                # checked/deadline settings are session state and carry
                # over untouched.
                db = Database(
                    path=argument,
                    hash_joins=self.db.hash_joins,
                )
            except OSError as error:
                return [f"error: {error}"]
            self.db.close()
            self._adopt(db)
            lines = [f"opened {argument}: {db.recovery.summary()}"]
            if self.server is not None:
                self._start_serving()
                lines.append("serving restarted on the new database")
            return lines
        if command == ".checkpoint":
            if self.db.durability is None:
                return ["error: no durable database open "
                        "(use .open <path>)"]
            return [self.db.checkpoint().summary()]
        if command == ".fsck":
            report = self.db.fsck()
            if report.ok:
                return [report.summary()]
            return [report.summary()] + [
                f"  {v}" for v in report.violations
            ]
        if command == ".sync":
            if self.db.durability is None:
                return ["error: no durable database open "
                        "(use .open <path>)"]
            if argument.lower() in ("on", "off"):
                self.db.sync = argument.lower() == "on"
                return [f"fsync on commit "
                        f"{'on' if self.db.sync else 'off'}"]
            return [f"fsync on commit is "
                    f"{'on' if self.db.sync else 'off'}"]
        if command == ".load":
            if not argument:
                return ["usage: .load <file.esql>"]
            try:
                with open(argument) as handle:
                    return list(self.run(handle))
            except OSError as error:
                return [f"error: {error}"]
        if command == ".explain":
            if not argument:
                return ["usage: .explain SELECT ..."]
            try:
                return [self.db.explain(argument,
                                        options=self.settings)]
            except ReproError as error:
                return [f"error: {error}"]
        if command == ".fuzz":
            return self._fuzz_command(argument)
        if command == ".stats":
            if not argument:
                return ["usage: .stats SELECT ..."]
            profiler = None
            if self.profile:
                from repro.obs.profile import Profiler
                profiler = Profiler()
            try:
                result, stats, optimized = self.db.query_with_stats(
                    argument, obs=profiler.bus if profiler else None,
                    options=self.settings,
                )
            except ReproError as error:
                return [f"error: {error}"]
            fired = optimized.rewrite_result.rules_fired()
            lines = [
                result.to_table(),
                f"rules fired: {fired}" if fired else "rules fired: none",
                ", ".join(f"{k}={v}"
                          for k, v in stats.snapshot().items()),
            ]
            if optimized.degraded:
                lines.append(
                    f"degraded: best-so-far plan "
                    f"({optimized.rewrite_result.degraded_reason} "
                    f"exhausted)"
                )
            if profiler is not None:
                lines.extend(profile_section(profiler.report()))
            return lines
        return [f"unknown command {command}; try .help"]

    def _fuzz_command(self, argument: str) -> list[str]:
        # scratch databases only -- the harness never touches self.db
        parts = argument.split()
        try:
            n = int(parts[0]) if parts else 100
            seed = int(parts[1]) if len(parts) > 1 else 0
        except ValueError:
            return ["usage: .fuzz [cases] [seed]"]
        if n <= 0 or len(parts) > 2:
            return ["usage: .fuzz [cases] [seed]"]
        from repro.qa import fuzz
        lines: list[str] = []
        report = fuzz(
            n, seed=seed,
            on_finding=lambda f: lines.extend(f.describe().splitlines()),
        )
        lines.append(report.summary())
        return lines

    def _budget_command(self, argument: str) -> list[str]:
        s = self.settings
        if argument.lower() in ("off", "none"):
            s.row_budget = None
            s.memory_budget = None
            return ["budgets off"]
        if argument:
            parts = argument.split()
            if len(parts) != 2 or parts[0].lower() not in (
                    "rows", "memory"):
                return ["usage: .budget [rows N | memory BYTES | off]"]
            try:
                value = int(parts[1])
            except ValueError:
                return [f"error: {parts[1]!r} is not an integer"]
            if value <= 0:
                return ["error: the budget must be positive"]
            if parts[0].lower() == "rows":
                s.row_budget = value
                return [f"row budget {value}"]
            s.memory_budget = value
            return [f"memory budget {value} bytes"]
        parts = []
        if s.row_budget is not None:
            parts.append(f"rows {s.row_budget}")
        if s.memory_budget is not None:
            parts.append(f"memory {s.memory_budget} bytes")
        return [", ".join(parts) or "no budgets"]

    def _queries_command(self) -> list[str]:
        registry = self.db.lifecycle
        lines = []
        for context in registry.active() + registry.recent():
            snap = context.snapshot()
            source = snap["source"].replace("\n", " ")
            if len(source) > 48:
                source = source[:45] + "..."
            flags = []
            if snap["cancelled"]:
                flags.append(f"cancelled({snap['cancel_reason']})")
            if snap["truncated"]:
                flags.append("truncated")
            where = (f"@{snap['worker']}" if snap["worker"]
                     else "inproc")
            lines.append(
                f"{snap['query_id']:>5s}  {snap['phase']:<9s} "
                f"{where:<8s} "
                f"{snap['rows_charged']:>8d} row(s) "
                f"{snap['bytes_peak']:>10d} B  "
                f"wait {snap['queue_wait_ms']:>6.1f} ms  "
                f"{snap['elapsed_ms']:>8.1f} ms"
                + (f"  [{', '.join(flags)}]" if flags else "")
                + (f"  {source}" if source else "")
            )
        return lines or ["(no statements)"]

    def _workers_command(self, argument: str) -> list[str]:
        if self.server is None:
            return ["error: not serving (use .serve on)"]
        arg = argument.lower()
        if arg in ("on",) or arg.isdigit():
            count = int(arg) if arg.isdigit() else 2
            if count <= 0:
                return ["usage: .workers [on | off | N | status]"]
            pool = self.server.enable_pool(count)
            pool.wait_ready(timeout_s=30.0, workers=1)
            return [f"pool on: {count} worker(s)"]
        if arg == "off":
            if self.server.pool is None:
                return ["pool is off"]
            self.server.disable_pool()
            return ["pool off"]
        if arg not in ("", "status"):
            return ["usage: .workers [on | off | N | status]"]
        pool = self.server.pool
        if pool is None:
            return ["pool is off"]
        summary = pool.summary()
        lines = [
            f"pool {summary['state']}: {summary['workers']} worker(s), "
            f"{summary['ready']} ready, {summary['busy']} busy, "
            f"{summary['dispatched']} dispatched, "
            f"{summary['retries']} retried, "
            f"{summary['crashes']} crash(es)"
        ]
        for (worker, pid, state, statements, restarts, query_id,
             source, beat_age, version) in pool.rows():
            busy = f"  {query_id} {source}" if query_id else ""
            lines.append(
                f"  {worker}: pid {pid}, {state}, "
                f"{statements} statement(s), {restarts} restart(s), "
                f"v{version}" + busy
            )
        return lines

    # -- serving commands -----------------------------------------------------
    def _start_serving(self) -> None:
        from repro.obs.telemetry import Telemetry
        from repro.server import Server
        # the interactive server mounts a collecting telemetry hub (no
        # exporters, just the registry .top reads) and a slow-query log
        self.server = Server(
            self.db, telemetry=Telemetry(collect=True),
            slow_query_ms=100.0,
        )
        # the active session shares the shell's settings object, so
        # .checked/.deadline keep applying to it in place
        self.session = self.server.open_session(settings=self.settings)

    def _serve_command(self, argument: str) -> list[str]:
        arg = argument.lower()
        if arg == "on":
            if self.server is not None:
                return ["already serving"]
            self._start_serving()
            return [f"serving on (session {self.session.id})"]
        if arg == "off":
            if self.server is None:
                return ["not serving"]
            self.server.close()
            self.server = None
            self.session = None
            return ["serving off"]
        if self.server is None:
            return ["serving is off"]
        stats = self.server.stats()
        admission = stats["admission"]
        return [
            f"serving is on (session {self.session.id}, "
            f"{stats['sessions']} session(s), "
            f"version {stats['snapshot_version']}, "
            f"{admission['admitted_total']} admitted, "
            f"{admission['shed_total']} shed)"
        ]

    def _sessions_command(self, argument: str) -> list[str]:
        if self.server is None:
            return ["error: not serving (use .serve on)"]
        parts = argument.split(None, 1)
        action = parts[0].lower() if parts else ""
        name = parts[1].strip() if len(parts) > 1 else None
        if action == "new":
            session = self.server.open_session(name)
            self.session = session
            self.settings = session.settings
            return [f"session {session.id} opened and active"]
        if action == "use":
            if not name:
                return ["usage: .sessions use <id>"]
            session = self.server.sessions.get(name)
            self.session = session
            self.settings = session.settings
            return [f"session {session.id} active"]
        if action == "close":
            if not name:
                return ["usage: .sessions close <id>"]
            self.server.close_session(name)
            lines = [f"session {name} closed"]
            if self.session is not None and self.session.id == name:
                self._start_serving()
                lines.append(f"session {self.session.id} active")
            return lines
        if action:
            return ["usage: .sessions [new [id] | use <id> "
                    "| close <id>]"]
        lines = []
        for session in self.server.sessions.sessions():
            marker = "*" if (self.session is not None
                             and session.id == self.session.id) else " "
            lines.append(
                f"{marker} {session.id}: {session.settings.describe()}, "
                f"{session.statements} statement(s), idle "
                f"{session.idle_for():.1f}s"
            )
        return lines or ["(no sessions)"]

    def _analyze_command(self, argument: str) -> list[str]:
        if not argument:
            return ["usage: .analyze SELECT ..."]
        try:
            if self.server is not None and self.session is not None:
                report = self.server.explain_json(
                    argument, session=self.session.id, analyze=True,
                )
            else:
                report = self.db.explain_json(
                    argument, analyze=True, options=self.settings,
                )
        except ReproError as error:
            return [f"error: {error}"]
        return analyze_section(report)

    def _top_command(self, argument: str = "") -> list[str]:
        if self.server is None:
            return ["error: not serving (use .serve on)"]
        limit = 10
        by_statement = False
        for token in argument.split():
            if token.isdigit() and int(token) > 0:
                limit = int(token)
            elif token.lower() == "by-statement":
                by_statement = True
            else:
                return ["usage: .top [N] [by-statement]"]
        if by_statement:
            rows = self.server.top_statements(limit)
            if not rows:
                return ["(no statements recorded)"]
            lines = ["hottest statements:"]
            for row in rows:
                template = row["template"].replace("\n", " ")
                if len(template) > 60:
                    template = template[:57] + "..."
                lines.append(
                    f"  [{row['fingerprint']}] {row['calls']} call(s), "
                    f"{row['rows']} row(s), "
                    f"{row['total_ms']:.2f} ms total "
                    f"({row['mean_ms']:.2f} ms mean), "
                    f"{row['rule_firings']} rule firing(s)  {template}"
                )
            return lines
        top = self.server.top(limit)
        lines = [
            f"uptime {top['uptime_s']:.1f}s, {top['qps']:.2f} req/s, "
            f"queue {top['queue_depth']}, shed {top['shed_total']} "
            f"({top['shed_rate'] * 100:.1f}%), {top['sessions']} "
            f"session(s), version {top['snapshot_version']}"
        ]
        for klass in ("read", "write"):
            row = top["requests"][klass]
            lines.append(
                f"  {klass:5s}: {row['count']} request(s), "
                f"p50 {row['p50_ms']:.2f} ms, "
                f"p95 {row['p95_ms']:.2f} ms, "
                f"p99 {row['p99_ms']:.2f} ms"
            )
        if top["rule_heat"]:
            lines.append("  hot rules:")
            for row in top["rule_heat"]:
                lines.append(
                    f"    {row['block']}/{row['rule']}: "
                    f"fired {row['fired']}, "
                    f"complexity {row['complexity_delta']:+d}"
                )
        if top["slow_queries"]:
            lines.append(f"  slow queries (>= "
                         f"{self.server.slow_query_ms:g} ms):")
            for entry in top["slow_queries"]:
                source = entry["source"].replace("\n", " ")
                if len(source) > 60:
                    source = source[:57] + "..."
                lines.append(
                    f"    [{entry['trace_id']}] "
                    f"{entry['duration_ms']:.1f} ms  {source}"
                )
        return lines

    def _shed_command(self, argument: str) -> list[str]:
        if self.server is None:
            return ["error: not serving (use .serve on)"]
        admission = self.server.admission
        if argument:
            from dataclasses import replace
            parts = argument.split()
            if len(parts) != 2:
                return ["usage: .shed [queue N | readers N | "
                        "writers N | timeout MS]"]
            knob, raw = parts[0].lower(), parts[1]
            try:
                value = float(raw) if knob == "timeout" else int(raw)
            except ValueError:
                return [f"error: {raw!r} is not a number"]
            if value <= 0:
                return ["error: the limit must be positive"]
            field = {
                "queue": "max_queue", "readers": "max_readers",
                "writers": "max_writers", "timeout": "queue_timeout_ms",
            }.get(knob)
            if field is None:
                return ["usage: .shed [queue N | readers N | "
                        "writers N | timeout MS]"]
            admission.limits = replace(
                admission.limits, **{field: value}
            )
            return [f"{field} = {value:g}"]
        snap = admission.snapshot()
        limits = snap["limits"]
        return [
            f"admitted {snap['admitted_total']}, shed "
            f"{snap['shed_total']}, waiting "
            f"{snap['waiting']['read'] + snap['waiting']['write']}",
            f"limits: {limits['max_readers']} reader(s), "
            f"{limits['max_writers']} writer(s), queue "
            f"{limits['max_queue']}, timeout "
            f"{limits['queue_timeout_ms']:g} ms",
            f"service ewma: read "
            f"{snap['service_ewma_ms']['read']:.2f} ms, write "
            f"{snap['service_ewma_ms']['write']:.2f} ms",
        ]


def _feed_interruptible(shell: Shell, line: str) -> list[str]:
    """Run one input line on a worker thread so Ctrl-C cancels the
    in-flight statement *cooperatively*.

    The old loop caught KeyboardInterrupt at the top level and exited
    the whole REPL -- and because the statement ran on the interrupted
    thread, the evaluator was unwound at an arbitrary bytecode
    boundary rather than a statement boundary.  Running the statement
    on a worker turns Ctrl-C into exactly what ``.kill`` does: the
    cancel token is pulled, the evaluator raises
    :class:`~repro.errors.QueryCancelled` at its next cooperative
    check (undo logs and lock releases run normally on the worker),
    and the shell prints the typed error and prompts again.
    """
    import threading

    box: dict = {}

    def work():
        try:
            box["out"] = shell.feed(line)
        except BaseException as error:  # includes SystemExit from .quit
            box["err"] = error

    worker = threading.Thread(
        target=work, name="repro-cli-statement", daemon=True
    )
    worker.start()
    while worker.is_alive():
        try:
            worker.join(timeout=0.1)
        except KeyboardInterrupt:
            cancelled = shell.cancel_inflight()
            if cancelled:
                print(f"^C cancelling {', '.join(cancelled)} ...")
            else:
                print("^C (nothing in flight yet; waiting)")
    if "err" in box:
        raise box["err"]
    return box.get("out", [])


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    shell = Shell()

    if argv:
        with open(argv[0]) as handle:
            try:
                for output in shell.run(handle):
                    print(output)
            except ReproError as error:
                print(f"error: {error}")
                return 1
        return 0

    print(_BANNER)
    while True:
        prompt = "....> " if shell._buffer else "esql> "
        try:
            line = input(prompt)
        except EOFError:
            break
        except KeyboardInterrupt:
            # Ctrl-C at the prompt: drop any half-typed statement and
            # keep the shell alive (only EOF / .quit leave)
            shell._buffer.clear()
            print("^C")
            continue
        try:
            for output in _feed_interruptible(shell, line):
                print(output)
        except SystemExit:
            break
        except KeyboardInterrupt:
            # raced the worker handoff; the token is already pulled
            print("^C")
        except ReproError as error:
            # last-resort guard: a failing statement prints one
            # diagnostic line and the REPL stays alive
            print(f"error: {error}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
