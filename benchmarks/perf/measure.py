"""Set-up, passes, answer checking and metric assembly for one workload.

Closed loop: every client blocks for its reply before sending the next
statement.  One untimed warm-up pass, then timed passes of the
identical statement list; workloads that write are put back to the
same starting state before each pass.  A statement's latency is its
median over the passes, each reading first divided by the speed the
box ran at just then (see "calibration" below); percentiles are then
taken across statements.
Everything here goes through ``Database`` / ``Server`` /
``ServingClient``; the traced run's probes live in :mod:`probes`.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from . import trace as tracing
from .metrics import BLOCKS
from .probes import CallProfile, Probes, reset_caches
from .workloads import SYS_READS, Workload, bag, insert_sql

__all__ = ["Runner", "PassResult", "percentile", "statement_medians",
           "statement_best", "speed_factor", "end_to_end", "measure",
           "measure_traced"]

MIN_PASSES = 3
SETUP_REPEATS = 3
PROFILED_PACKAGES = ("esql", "lera", "rules", "terms", "engine")


# -- small statistics ---------------------------------------------------------

def percentile(values, q: float) -> float:
    """The ``q`` quantile (0..1) with linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def statement_medians(passes: list) -> list:
    """Per statement, the median of its time over the passes (each
    pass a list of seconds, one per statement)."""
    return [statistics.median(column) for column in zip(*passes)]


def statement_best(passes: list) -> list:
    """Per statement, its fastest time over the passes."""
    return [min(column) for column in zip(*passes)]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# -- calibration --------------------------------------------------------------

# This box runs 1.6x to 3x slower for seconds to tens of seconds at a
# time, whenever its neighbours are busy, and raw medians follow those
# episodes: run-to-run spreads of 20-30% on the same commit.  So a
# fixed piece of pure-Python work (the kernel) is timed between
# statements, every ~0.1 s, and each statement's reading is divided by
# the median of the four kernel timings around it over
# REFERENCE_KERNEL_S.  The kernel meets the same episodes as the
# statements beside it, so the quotient holds still where the clock
# does not: measured on this box, the p50 of a workload repeats to 2-5%
# calibrated against 20-40% raw.  (Taking each statement's fastest
# pass instead works when episodes are short and fails when one
# outlasts the run; scaling a whole run by one factor fails when the
# speed changes within it.  Statements that mostly wait on the kernel
# of the OS -- log appends -- slow down less than the kernel does and
# keep a spread near 10%.)
#
# Reported times are therefore wall-clock seconds at the speed at which
# the kernel takes 5 ms -- about this box when it is quiet.  Raw clock
# readings and the speed factor are reported beside them.
REFERENCE_KERNEL_S = 0.005
CALIBRATE_EVERY_S = 0.1
CALIBRATION_WINDOW = 2  # kernel samples on each side of a statement


def kernel() -> int:
    """The calibration work: allocation-heavy interpreter time."""
    table: dict = {}
    for i in range(20_000):
        table[i % 5000] = [i, str(i), (i, i + 1)]
    return len(table)


def kernel_seconds() -> float:
    started = perf_counter()
    kernel()
    return perf_counter() - started


def speed_factor(samples) -> float:
    """How much slower than reference speed the kernel timings say the
    box ran (their median over the reference)."""
    return statistics.median(samples) / REFERENCE_KERNEL_S


# -- the system under test ----------------------------------------------------

def load(db, workload: Workload) -> None:
    """Schema and initial rows, through the facade."""
    for script in workload.ddl:
        db.execute(script)
    for constraint in workload.constraints:
        db.add_integrity_constraint(constraint)
    for table, rows in workload.tables.items():
        if rows:
            db.execute(insert_sql(table, rows))


class Target:
    """One open instance of the system, at the workload's tier."""

    def __init__(self, workload: Workload, path: Optional[str] = None):
        from repro import Database
        self.workload = workload
        self.path = path
        self.server = None
        self.clients: list = []
        self.boot_s = 0.0
        self._retries: list = []  # one entry per client back-off
        if workload.tier == "durable":
            self.db = Database(path=path, sync=False)
        else:
            self.db = Database()
        load(self.db, workload)
        if workload.tier == "durable":
            # start each pass from a snapshot and an empty log, so the
            # bytes and recovery work measured are the pass's own
            self.db.checkpoint()
        elif workload.tier in ("served", "pooled"):
            from repro.server import RetryPolicy, Server
            started = perf_counter()
            self.server = Server(self.db, workers=workload.workers)
            if workload.workers and not self.server.pool.wait_ready(
                    timeout_s=60.0, workers=workload.workers):
                raise RuntimeError("pool workers did not come up")
            self.boot_s = perf_counter() - started
            self.clients = [
                self.server.client(retry=RetryPolicy(sleep=self._backoff))
                for __ in range(workload.clients)
            ]

    def _backoff(self, delay: float) -> None:
        self._retries.append(delay)  # list.append is atomic
        time.sleep(delay)

    def callers(self) -> list:
        """Per client, ``(query, execute)``; query returns row lists."""
        if self.clients:
            return [(lambda text, c=c: c.query(text).rows, c.execute)
                    for c in self.clients]
        db = self.db
        return [(lambda text: db.query(text).rows, db.execute)]

    def restore(self) -> None:
        for statement in self.workload.restore:
            self.db.execute(statement)

    def table_state(self, table: str) -> tuple:
        return bag(self.db.query(f"SELECT * FROM {table}").rows)

    def counters(self) -> dict:
        """Serving-layer event counts so far (zeros when not served)."""
        out = {"shed": 0, "fallbacks": 0, "pool_retries": 0,
               "restarts": 0, "retries": len(self._retries)}
        server = self.server
        if server is not None:
            out["shed"] = server.admission.shed_total
            out["fallbacks"] = server.metrics.value("pool.fallbacks")
            pool = server.stats()["pool"]
            if pool is not None:
                out["pool_retries"] = pool["retries"]
                out["restarts"] = pool["restarts"]
        return out

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.server is not None:
            self.server.close()
        self.db.close()


def _dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path)
               if entry.is_file())


# -- one pass -----------------------------------------------------------------

@dataclass
class PassResult:
    latencies: list  # raw seconds per statement (0.0 in traced passes)
    factors: list  # speed factor per statement
    wall: float  # raw seconds, calibration time taken out
    speed: float  # the pass's speed factor, weighted by latency
    failed: int = 0
    wrong: int = 0
    checked: int = 0
    rows_out: int = 0
    durable: dict = field(default_factory=dict)

    def calibrated(self) -> list:
        """Seconds per statement at reference speed."""
        return [t / f for t, f in zip(self.latencies, self.factors)]


class _Pass:
    """The state one pass's client loops share."""

    def __init__(self, statements: list, n: int, tracer, hooks: dict,
                 every: int):
        self.statements = statements
        self.latencies = [0.0] * n
        self.results: list = [None] * n
        self.marks = [0] * n  # kernel samples taken before statement i
        self.samples: list = []
        self.errors: list = []
        self.tracer = tracer
        self.hooks = hooks
        self.every = every

    def sample(self) -> None:
        self.samples.append(kernel_seconds())

    def drive(self, indices, callers: list, pause, pauses: int) -> None:
        """One client's closed loop over ``indices``; ``pause`` runs
        before every ``every``-th statement, ``pauses`` times in all."""
        statements, latencies, results = (self.statements, self.latencies,
                                          self.results)
        hooks, every, tracer = self.hooks, self.every, self.tracer
        marks, samples = self.marks, self.samples
        for k, i in enumerate(indices):
            if k % every == 0 and k // every < pauses:
                pause()
            hook = hooks.get(i)
            if hook is not None:
                hook()
            statement = statements[i]
            query, execute = callers[statement.client]
            call = execute if statement.kind == "write" else query
            text = statement.text
            marks[i] = len(samples)
            if tracer is None:
                started = perf_counter()
                try:
                    results[i] = call(text)
                except Exception as error:  # a failure is a datum
                    self.errors.append((i, repr(error)))
                latencies[i] = perf_counter() - started
            else:
                span = tracer.begin("stmt", i)
                try:
                    results[i] = call(text)
                except Exception as error:
                    self.errors.append((i, repr(error)))
                tracer.end(span)

    def run(self, n: int, callers: list, threaded: bool) -> float:
        """Run every client's loop; returns raw wall seconds with the
        calibration samples taken out."""
        every = self.every
        if not threaded:
            started = perf_counter()
            self.drive(range(n), callers, self.sample, -(-n // every))
            self.sample()
            return perf_counter() - started - sum(self.samples)
        shares = [[i for i in range(n)
                   if self.statements[i].client == c]
                  for c in range(len(callers))]
        pauses = -(-min(len(share) for share in shares) // every)
        barrier = threading.Barrier(len(callers))
        start = threading.Barrier(len(callers) + 1)

        def client_loop(client: int) -> None:
            def pause() -> None:
                # the kernel must not share the interpreter with the
                # other client: everyone stops, one client measures
                barrier.wait()
                if client == 0:
                    self.sample()
                barrier.wait()

            start.wait()
            self.drive(shares[client], callers, pause, pauses)

        threads = [threading.Thread(target=client_loop, args=(c,))
                   for c in range(len(callers))]
        for thread in threads:
            thread.start()
        start.wait()
        started = perf_counter()
        for thread in threads:
            thread.join()
        wall = perf_counter() - started - sum(self.samples)
        self.sample()
        return wall

    def factors(self) -> list:
        """Per statement, the speed factor from the kernel samples
        nearest it (``marks[i]`` of them came before statement i)."""
        samples, by_mark = self.samples, {}
        for mark in set(self.marks):
            by_mark[mark] = speed_factor(
                samples[max(0, mark - CALIBRATION_WINDOW):
                        mark + CALIBRATION_WINDOW])
        return [by_mark[mark] for mark in self.marks]


class Runner:
    """Builds targets for one workload and runs passes over them."""

    def __init__(self, workload: Workload, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.target: Optional[Target] = None
        self.reference: dict = {}
        self.errors: list = []
        # statements between calibration samples (per client): the
        # generator's guess until the warm-up pass has been timed
        self.every = workload.calibrate_every
        self._dirs = 0

    # -- set-up ---------------------------------------------------------------
    def _fresh_path(self) -> Optional[str]:
        if self.workload.tier != "durable":
            return None
        self._dirs += 1
        return os.path.join(self.workdir, f"db{self._dirs}")

    def build(self) -> float:
        """Open a fresh target (closing any previous); returns its
        seconds at reference speed, by the kernel timed on either side."""
        self.close()
        gc.collect()
        before = kernel_seconds()
        started = perf_counter()
        self.target = Target(self.workload, self._fresh_path())
        spent = perf_counter() - started
        factor = speed_factor((before, kernel_seconds()))
        self.target.boot_s /= factor
        return spent / factor

    def close(self) -> None:
        target, self.target = self.target, None
        if target is not None:
            target.close()
            if target.path:
                shutil.rmtree(target.path, ignore_errors=True)

    def compute_reference(self) -> None:
        """Answers for reads the generator has no model of, from a
        database with rewriting, semi-naive evaluation and hash joins
        all off."""
        texts = {s.text for s in self.workload.statements
                 if s.kind == "read" and s.expect is None}
        if not texts:
            return
        from repro import Database
        plain = Database(rewrite=False, semi_naive=False, hash_joins=False)
        load(plain, self.workload)
        self.reference = {t: bag(plain.query(t).rows) for t in texts}

    def warm_up(self) -> float:
        """The untimed first pass; returns its seconds at reference
        speed and sets the calibration spacing for the timed passes."""
        outcome = self.run_pass()
        per_client = len(outcome.latencies) / self.workload.clients
        self.every = max(1, min(200, round(
            CALIBRATE_EVERY_S * per_client / outcome.wall)))
        return outcome.wall / outcome.speed

    # -- passes ---------------------------------------------------------------
    def run_pass(self, tracer=None, serial: bool = False,
                 limit: Optional[int] = None,
                 around=nullcontext) -> PassResult:
        """One pass over the statement list (its first ``limit``
        statements); ``serial`` runs all clients' statements from one
        thread in list order (exact counts, no contention).  ``around``
        makes a context manager entered for the statements only, not
        for restore or answer checking (probes, profiler)."""
        workload = self.workload
        if workload.tier == "durable":
            self.build()
        else:
            self.target.restore()
        target = self.target
        statements = workload.statements
        n = len(statements) if limit is None else min(limit,
                                                       len(statements))
        durable: dict = {}
        hooks = {}
        if workload.checkpoint_at is not None \
                and workload.checkpoint_at < n:
            def checkpoint():
                durable["log_bytes"] = _dir_bytes(target.path) \
                    - durable["base_bytes"]
                started = perf_counter()
                report = target.db.checkpoint()
                durable["checkpoint_s"] = perf_counter() - started
                durable["snapshot_bytes"] = report.bytes_written
                durable["base_bytes"] = _dir_bytes(target.path)
            hooks[workload.checkpoint_at] = checkpoint
        if target.path:
            durable["base_bytes"] = _dir_bytes(target.path)
        state = _Pass(statements, n, tracer, hooks, self.every)
        callers = target.callers()
        gc.collect()
        with around():
            wall = state.run(n, callers,
                             threaded=len(callers) > 1 and not serial)
        factors = state.factors()
        busy = sum(state.latencies)
        speed = (busy / sum(t / f for t, f in zip(state.latencies, factors))
                 if busy else speed_factor(state.samples))
        # a statement with no result raised, or its client died
        outcome = PassResult(state.latencies, factors, wall, speed,
                             failed=state.results.count(None))
        self.errors.extend(state.errors[:5])
        self._check(outcome, state.results, n, durable)
        return outcome

    def _check(self, outcome: PassResult, results: list, n: int,
               durable: dict) -> None:
        """Compare answers with the model, outside the timed region."""
        workload, target = self.workload, self.target
        for i in range(n):
            statement = workload.statements[i]
            rows = results[i]
            if statement.kind == "write" or rows is None:
                continue
            outcome.rows_out += len(rows)
            if statement.kind != "read":
                continue
            expect = statement.expect
            if expect is None:
                expect = self.reference.get(statement.text)
            if expect is None:
                continue
            outcome.checked += 1
            if bag(rows) != expect:
                outcome.wrong += 1
        full = n == len(workload.statements)
        if target.path:
            durable["log_bytes"] = durable.get("log_bytes", 0) \
                + _dir_bytes(target.path) - durable.pop("base_bytes")
            # what a crash leaves behind: the directory as it is now,
            # copied while the database still holds its log open
            copy = target.path + ".crash"
            shutil.copytree(target.path, copy)
            from repro import Database
            started = perf_counter()
            reopened = Database(path=copy)
            durable["recovery_s"] = (perf_counter() - started) \
                / outcome.speed
            durable["replayed"] = reopened.recovery.replayed
            try:
                if full:
                    expect = workload.final["ACCT"]
                    got = bag(reopened.query("SELECT * FROM ACCT").rows)
                    durable["acked_lost"] = len(
                        set(expect).symmetric_difference(got))
            finally:
                reopened.close()
                shutil.rmtree(copy, ignore_errors=True)
            if "checkpoint_s" in durable:
                durable["checkpoint_s"] /= outcome.speed
            outcome.durable = durable
        elif full:
            for table, expect in workload.final.items():
                outcome.checked += 1
                if target.table_state(table) != expect:
                    outcome.wrong += 1

    def timed_passes(self, seconds: float, minimum: int = MIN_PASSES,
                     ) -> list:
        passes = []
        spent = 0.0
        while len(passes) < minimum or spent < seconds:
            outcome = self.run_pass()
            passes.append(outcome)
            spent += outcome.wall
        return passes


# -- end-to-end metrics -------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: Workload, passes: list, setup_s: float,
               fallbacks: int) -> dict:
    """The end-to-end metric values of one untraced run (``None`` for
    a metric the workload does not have).  Times are at reference
    speed; ``raw_stmt_p50_ms`` and ``speed_factor`` say what the clock
    read and how they were scaled."""
    statements = workload.statements
    best = statement_medians([p.calibrated() for p in passes])
    reads = [m for m, s in zip(best, statements) if s.kind != "write"]
    writes = [m for m, s in zip(best, statements) if s.kind == "write"]
    attempted = len(statements) * len(passes)
    failed = sum(p.failed for p in passes) + fallbacks
    checked = sum(p.checked for p in passes)
    values = {
        "stmt_p50_ms": statistics.median(best) * 1e3,
        "stmt_p95_ms": percentile(best, 0.95) * 1e3,
        "read_p50_ms": statistics.median(reads) * 1e3,
        # with two clients a write's latency is mostly its wait for the
        # other client's read to let go of the lock, and that wait
        # locks into a different pattern from run to run (p50 0.25 or
        # 0.4 ms): not reported, its cost shows in stmts_per_s
        "write_p50_ms": (statistics.median(writes) * 1e3
                         if writes and workload.clients == 1 else None),
        "stmts_per_s": statistics.median(
            len(statements) * p.speed / p.wall for p in passes),
        "failed_share": failed / attempted,
        "wrong_share": sum(p.wrong for p in passes) / max(1, checked),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "recovery_s": None, "wal_bytes_per_stmt": None,
        "acked_lost": None,
        "speed_factor": statistics.median(p.speed for p in passes),
        "raw_stmt_p50_ms": statistics.median(statement_medians(
            [p.latencies for p in passes])) * 1e3,
    }
    if workload.tier == "durable":
        per_pass = {p.durable["log_bytes"] + p.durable["snapshot_bytes"]
                    for p in passes}
        values["recovery_s"] = statistics.median(
            p.durable["recovery_s"] for p in passes)
        # exact by construction; a disagreement between passes is a bug
        values["wal_bytes_per_stmt"] = max(per_pass) / len(writes)
        values["acked_lost"] = sum(p.durable["acked_lost"]
                                   for p in passes) \
            + (0 if len(per_pass) == 1 else 1)
    return values


def measure(workload: Workload, workdir: str, seconds: float,
            quick: bool = False) -> dict:
    """The untraced run: set-up, warm-up, timed passes, checks."""
    runner = Runner(workload, workdir)
    try:
        runner.compute_reference()
        builds = [runner.build()
                  for __ in range(1 if quick else SETUP_REPEATS)]
        # set-up as a user pays it: building the instance (median of
        # the repeats) plus the first, cache-filling pass
        setup_s = statistics.median(builds) + runner.warm_up()
        passes = runner.timed_passes(0.0 if quick else seconds,
                                     1 if quick else MIN_PASSES)
        fallbacks = runner.target.counters()["fallbacks"]
        values = end_to_end(workload, passes, setup_s, fallbacks)
    finally:
        runner.close()
    return {
        "values": values,
        "passes": len(passes),
        "statements": len(workload.statements),
        "attempted": len(workload.statements) * len(passes),
        "failed": sum(p.failed for p in passes) + fallbacks,
        "wrong": sum(p.wrong for p in passes),
        "checked": sum(p.checked for p in passes),
        "errors": runner.errors[:5],
    }


# -- the traced run -----------------------------------------------------------

def _best_breakdown(tables: list, n: int) -> dict:
    """``stage -> [seconds per statement]``: for each statement, the
    stage times of the traced pass in which its root span was
    shortest (one coherent breakdown, not a mix of passes)."""
    names = sorted({name for table in tables for name in table})
    zeros = [0.0] * n
    totals = [
        [sum(parts) for parts in zip(*(
            table.get(name, zeros) for name in names
            if name != "core.optimize.inclusive"))]
        for table in tables
    ]
    pick = [min(range(len(tables)), key=lambda t: totals[t][i])
            for i in range(n)]
    return {name: [tables[pick[i]].get(name, zeros)[i]
                   for i in range(n)] for name in names}


def _timed(call, texts: list) -> list:
    out = []
    for text in texts:
        started = perf_counter()
        call(text)
        out.append(perf_counter() - started)
    return out


def _interleaved(configs: dict, texts: list, repeats: int) -> dict:
    """``name -> seconds`` summed over ``texts`` (each text's best of
    ``repeats``), configurations taking turns within each repeat so an
    episode of interference lands on all of them alike."""
    samples = {name: [] for name in configs}
    for __ in range(repeats):
        for name, call in configs.items():
            samples[name].append(_timed(call, texts))
    return {name: sum(statement_best(runs))
            for name, runs in samples.items()}


def side_ratios(workload: Workload, workdir: str, sample: list,
                write_sample: list, pooled_s: Optional[float],
                repeats: int) -> dict:
    """The configuration ratios: the same statements with one layer
    switched on, over the time without it (facade flags only; every
    configuration gets its own loaded instance)."""
    from repro import Database
    from repro.obs.telemetry import Telemetry
    from repro.server import Server

    def loaded(**flags):
        db = Database(**flags)
        load(db, workload)
        return db

    out: dict = {}
    bare = loaded()
    governed = loaded(statement_timeout_ms=60_000.0)
    server = Server(loaded())
    hub_server = Server(loaded(), telemetry=Telemetry())
    client = server.client()
    try:
        t = _interleaved({
            "bare": bare.query,
            "governed": governed.query,
            "analyze": lambda q: bare.query(q, analyze=True),
            "explain": bare.explain_json,
            "served": server.query,
            "client": client.query,
            "telemetry": hub_server.query,
        }, sample, repeats)
        out["lifecycle.governed_ratio"] = t["governed"] / t["bare"]
        out["obs.analyze_ratio"] = t["analyze"] / t["bare"]
        out["obs.explain_json_ms"] = t["explain"] / len(sample) * 1e3
        out["server.served_ratio"] = t["served"] / t["bare"]
        out["server.client_ratio"] = t["client"] / t["served"]
        out["obs.telemetry_ratio"] = t["telemetry"] / t["served"]
        sys_s = _interleaved({"sys": bare.query}, list(SYS_READS),
                             repeats)["sys"]
        out["obs.sys_read_ms"] = sys_s / len(SYS_READS) * 1e3
        if pooled_s is not None:
            out["pool.pooled_ratio"] = pooled_s / t["client"]
        # checked mode re-validates every block that fired, so it is
        # sampled more thinly: at most 50 statements
        checked = loaded(checked=True)
        t = _interleaved({"bare": bare.query, "checked": checked.query},
                         sample[:50], min(repeats, 2))
        out["resilience.checked_ratio"] = t["checked"] / t["bare"]
    finally:
        client.close()
        server.close()
        hub_server.close()
    if write_sample:
        # writes cannot be repeated on one instance: each repeat gets
        # a fresh pair of databases, one logged and one not
        memory, durable = [], []
        for rep in range(repeats):
            path = os.path.join(workdir, f"ratio{rep}")
            plain = loaded()
            logged = loaded(path=path, sync=False)
            try:
                memory.append(_timed(plain.execute, write_sample))
                durable.append(_timed(logged.execute, write_sample))
            finally:
                logged.close()
                shutil.rmtree(path, ignore_errors=True)
        out["durability.durable_ratio"] = (
            statistics.median(statement_best(durable))
            / statistics.median(statement_best(memory)))
    return out


def plan_work_ratio(workload: Workload, texts: list) -> Optional[float]:
    """EvalStats ``total_work`` of the unrewritten plans over the
    rewritten ones, at the loaded state; exact."""
    from repro import Database
    db = Database()
    load(db, workload)
    plain = rewritten = 0
    for text in texts:
        plain += db.query_with_stats(text, rewrite=False)[1].total_work
        rewritten += db.query_with_stats(text, rewrite=True)[1].total_work
    return plain / rewritten if rewritten else None


def count_pass(runner: Runner, tracer, probes: Probes) -> dict:
    """One serial pass over the count prefix under the probes and
    cProfile, on a freshly built instance with cold caches: exact
    per-layer work counts that repeat from run to run (times are
    discarded)."""
    limit = min(runner.workload.count_prefix,
                len(runner.workload.statements))
    profile = CallProfile(PROFILED_PACKAGES)
    if runner.workload.tier != "durable":  # those rebuild every pass
        runner.build()
    reset_caches()

    @contextmanager
    def around():
        with probes.installed(), profile:
            yield

    outcome = runner.run_pass(tracer=tracer, serial=True, limit=limit,
                              around=around)
    __, counts = tracer.drain()
    counts["statements"] = limit
    counts["rows_out"] = outcome.rows_out
    for package, total in profile.calls.items():
        counts[f"{package}.py_calls"] = total
    return counts


def count_metrics(counts: dict) -> dict:
    """The count-valued per-layer metrics from one count pass."""
    n = counts["statements"]
    get = counts.get
    examined = get("engine.tuples_scanned", 0) + get("engine.join_pairs", 0)
    out = {
        "lera.plan_nodes": (get("lera.plan_nodes", 0)
                            / max(1, get("core.optimizes", 0))),
        "rules.noop_share": (get("rules.noop_rewrites", 0)
                             / max(1, get("rules.rewrites", 0))),
        "rules.applications_per_stmt": get("rules.applications", 0) / n,
        "rules.checks_per_stmt": get("rules.checks", 0) / n,
        "engine.rows_examined_per_row_out":
            examined / max(1, counts["rows_out"]),
    }
    for block in BLOCKS:
        key = f"rules.block.{block}.applications"
        out[key] = get(key, 0)
    for key in ("tuples_scanned", "join_pairs", "qual_evaluations",
                "fix_iterations"):
        out[f"engine.{key}_per_stmt"] = get(f"engine.{key}", 0) / n
    for package in PROFILED_PACKAGES:
        out[f"{package}.py_calls_per_stmt"] = \
            get(f"{package}.py_calls", 0) / n
    return out


def _sample(workload: Workload, best: list, budget_s: float) -> tuple:
    """Leading reads whose untraced time adds up to ``budget_s`` (5 to
    50 of them), as ``(texts, indices)``."""
    texts, indices, spent = [], [], 0.0
    for i, statement in enumerate(workload.statements):
        if statement.kind != "read":
            continue
        if len(texts) >= 5 and (spent >= budget_s or len(texts) >= 50):
            break
        texts.append(statement.text)
        indices.append(i)
        spent += best[i]
    return texts, indices


def measure_traced(workload: Workload, workdir: str, seconds: float,
                   trace_path: Optional[str], quick: bool = False) -> dict:
    """The traced run: untraced and probed passes taking turns (their
    difference is the tracing overhead), one count pass, the side
    ratios.  Returns per-layer values (``None`` = probe missing)."""
    runner = Runner(workload, workdir)
    tracer = tracing.Tracer()
    n = len(workload.statements)
    try:
        runner.compute_reference()
        runner.build()
        boot_s = runner.target.boot_s
        runner.warm_up()
        # resolved now, with every layer imported: modules that hold a
        # by-value reference to a probed function are rebound too
        probes = Probes(tracer)
        plain, probed, tables, spent = [], [], [], 0.0
        before = runner.target.counters()
        while not plain or (not quick and spent < 0.4 * seconds):
            plain.append(runner.run_pass())
            probed.append(runner.run_pass(tracer=tracer,
                                          around=probes.installed))
            threads, __ = tracer.drain()
            table = tracing.stage_times(threads, n)
            table["core.optimize.inclusive"] = tracing.inclusive_times(
                threads, n, "core.optimize")
            # calibrated like the untraced latencies, per statement
            tables.append({
                name: [t / f for t, f in zip(row, probed[-1].factors)]
                for name, row in table.items()
            })
            spent += plain[-1].wall + probed[-1].wall
        after = runner.target.counters()
        if trace_path:
            tracing.write_jsonl(trace_path, threads)
        counts = count_pass(runner, tracer, probes)
        untraced = end_to_end(workload, plain, 0.0, 0)
    finally:
        runner.close()
    # with only a pair or two of passes, each statement takes its
    # faster reading on both sides of the traced/untraced comparison
    stage = _best_breakdown(tables, n)
    total = sum(sum(row) for name, row in stage.items()
                if name != "core.optimize.inclusive")
    best = statement_best([p.calibrated() for p in plain])
    zeros = [0.0] * n

    def ms(name: str):
        if name in probes.missing:
            return None
        return _mean(stage.get(name, zeros)) * 1e3

    def share(name: str):
        if name in probes.missing:
            return None
        return sum(stage.get(name, zeros)) / total

    facade = [a + b for a, b in zip(stage.get("engine.query", zeros),
                                    stage.get("engine.execute", zeros))]
    values = {
        "esql.parse_ms": ms("esql.parse"),
        "esql.fingerprint_ms": ms("esql.fingerprint"),
        "esql.translate_ms": ms("esql.translate"),
        "esql.dml_apply_ms": ms("esql.dml_apply"),
        "lera.typecheck_ms": ms("lera.typecheck"),
        "core.optimize_ms": (None if "core.optimize" in probes.missing
                             else ms("core.optimize.inclusive")),
        "core.optimize_self_ms": ms("core.optimize"),
        "rules.rewrite_ms": ms("rules.rewrite"),
        "rules.rewrite_share": share("rules.rewrite"),
        "engine.evaluate_ms": ms("engine.evaluate"),
        "engine.eval_share": share("engine.evaluate"),
        "engine.unattributed_ms": _mean(facade) * 1e3,
        "engine.unattributed_share": sum(facade) / total,
        "durability.log_statement_ms": ms("durability.log_statement"),
        "server.self_ms": ms("stmt"),
        "server.admit_ms": ms("server.admit"),
        "server.guard_read_ms": ms("server.guard_read"),
        "server.guard_write_ms": ms("server.guard_write"),
        "server.shed": after["shed"] - before["shed"],
        "server.retries": after["retries"] - before["retries"],
        "pool.boot_s": boot_s if workload.workers else 0.0,
        "pool.submit_ms": ms("pool.submit"),
        "pool.fallbacks": after["fallbacks"] - before["fallbacks"],
        "pool.retries": after["pool_retries"] - before["pool_retries"],
        "pool.restarts": after["restarts"] - before["restarts"],
        "trace.overhead_ratio": total / sum(best),
        "durability.checkpoint_s": 0.0, "durability.snapshot_bytes": 0,
        "durability.replayed_stmts": 0, "durability.durable_ratio": 0.0,
        "pool.pooled_ratio": 0.0,
    }
    for name, probe in (("lera.plan_nodes", "core.optimize"),
                        ("rules.noop_share", "rules.rewrite"),
                        ("rules.applications_per_stmt", "rules.rewrite"),
                        ("rules.checks_per_stmt", "rules.rewrite")):
        if probe in probes.missing:
            values[name] = None
    if workload.tier == "durable":
        last = plain[-1].durable
        values["durability.checkpoint_s"] = statistics.median(
            p.durable["checkpoint_s"] for p in plain)
        values["durability.snapshot_bytes"] = last["snapshot_bytes"]
        values["durability.replayed_stmts"] = last["replayed"]
    for name, value in count_metrics(counts).items():
        values.setdefault(name, value)
    texts, indices = _sample(workload, best, 0.05 if quick else 0.1)
    writer = workload.for_client(0) if workload.clients > 1 \
        else workload.statements
    writes = [s.text for s in writer if s.kind == "write"][:100]
    # raw seconds, like the side ratios' own timings
    raw = statement_best([p.latencies for p in plain])
    pooled_s = (sum(raw[i] for i in indices)
                if workload.tier == "pooled" else None)
    values.update(side_ratios(workload, workdir, texts, writes, pooled_s,
                              1 if quick else 3))
    values["rules.plan_work_ratio"] = plan_work_ratio(workload, [
        s.text for s in workload.statements[:workload.count_prefix]
        if s.kind == "read"])
    for name in ("write_p50_ms", "recovery_s", "wal_bytes_per_stmt"):
        values[name] = untraced[name]
    return {
        "values": values,
        "counts": counts,
        "passes": len(plain),
        "statements": n,
        "attempted": n * len(plain),
        "failed": sum(p.failed for p in plain + probed),
        "wrong": sum(p.wrong for p in plain + probed),
        "probe_missing": list(probes.missing),
        "errors": runner.errors[:5],
    }
