"""Command line of the wall-clock benchmark.

Four ways in::

    run.py --workload W --seed N --seconds S --trace 0|1
    run.py [--seed N] [--runs K] [--workloads a,b] [--quick] [--out FILE]
    run.py compare A.json B.json
    run.py contract                       # prints BENCHMARK.json

(each as ``python3 benchmarks/perf/run.py ...``).  The first is the
driver's contract (BENCHMARK.json): one workload, one
run, and as the last line of standard output one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The second
runs every workload that way -- each run in a fresh subprocess,
untraced then traced -- checks every answer, prints every metric by
name with its unit, and writes the numbers to ``--out``.  The third
compares two such files against the bounds in :mod:`metrics`.
(``python -m benchmarks.perf.run`` from the repository root is the
same program.)
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if __name__ == "__main__" and not __package__:
    # run as a script: sys.path[0] is this directory, whose trace.py
    # would shadow the standard library's; import through the package
    sys.path[0] = str(ROOT)
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"benchmarks/perf: no program to measure -- "
             f"{ROOT / 'src' / 'repro'} is missing")
if str(ROOT / "src") not in sys.path:
    sys.path.insert(1, str(ROOT / "src"))

from benchmarks.perf import metrics as M  # noqa: E402
from benchmarks.perf.workloads import WORKLOADS, build  # noqa: E402

OUT = HERE / "out"
DEFAULT_SEED = 20260926
RUN_SECONDS = 10
CLOSED_LOOP = "closed loop: generator lateness n/a"


# -- one workload, one run (the driver's contract) ----------------------------

def run_one(name: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> dict:
    from benchmarks.perf import measure
    workload = build(name, seed, 0.1 if quick else 1.0)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{name}-{os.getpid()}"
    # a killed run with this pid may have left its databases behind
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        if trace:
            report = measure.measure_traced(
                workload, str(workdir), seconds,
                str(OUT / f"{name}.trace.jsonl"), quick)
        else:
            report = measure.measure(workload, str(workdir), seconds,
                                     quick)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(workload=name, seed=seed, trace=int(trace),
                  clients=workload.clients, workers=workload.workers,
                  why=workload.why, mix=workload.mix)
    return report


def pin_to_one_cpu() -> None:
    """Run on one CPU (pool workers inherit it).  Under the interpreter
    lock two client threads cannot use two anyway, and whether the
    box's second CPU happens to be free flips ``served_mixed`` between
    two tail-latency modes (p95 1.8 ms or 4.2 ms); pinned, every run is
    in the same one.  The highest CPU is the one least used by
    interrupt handling."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not Linux, or not permitted: run unpinned


def contract_line(report: dict) -> str:
    """The last line of output BENCHMARK.json promises the driver."""
    values = report["values"]
    end_to_end, per_layer = M.benchmark_json_metrics()
    wanted = per_layer if report["trace"] else end_to_end
    out = {}
    for spec in wanted:
        value = values.get(spec["name"])
        # a metric the workload has no statement for, or whose probe
        # is gone, reads 0 here (the detail file keeps the null)
        out[spec["name"]] = {"value": 0 if value is None else value,
                             "unit": spec["unit"]}
    correct = report["wrong"] == 0 and not values.get("acked_lost")
    return json.dumps({
        "correct": bool(correct), "attempted": report["attempted"],
        "failed": report["failed"], "metrics": out,
    })


# -- every workload (the suite) -----------------------------------------------

def environment() -> dict:
    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": git("rev-parse", "HEAD"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "gc": {"enabled": gc.isenabled(), "threshold": gc.get_threshold(),
               "collect_between_passes": True},
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "flush_policy": "sync=False (flush to the OS, no fsync)",
        "load_model": CLOSED_LOOP,
    }


def child(name: str, seed: int, seconds: float, trace: int,
          quick: bool) -> dict:
    """Run one workload in a fresh interpreter; return its report."""
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"detail-{name}-{trace}-{os.getpid()}.json"
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--detail", str(detail)]
    if quick:
        command.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, text=True,
                              capture_output=True, timeout=900)
        if done.returncode != 0:
            raise RuntimeError(
                f"{name} (trace={trace}) exited {done.returncode}:\n"
                f"{done.stderr[-2000:]}")
        with open(detail, encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        detail.unlink(missing_ok=True)


def spread(values: list) -> float:
    """Quartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def summarize(runs: list) -> dict:
    """``metric -> {value, spread, runs}`` over same-workload runs:
    the median of the runs and their quartile spread."""
    out = {}
    for name in runs[0]:
        values = [r[name] for r in runs if r[name] is not None]
        if len(values) != len(runs):
            out[name] = {"value": None}
            continue
        out[name] = {"value": statistics.median(values)}
        if len(values) > 1:
            out[name]["spread"] = spread(values)
            out[name]["runs"] = values
    return out


def suite(args) -> int:
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    result = {
        "schema": 1, "seed": args.seed, "runs": args.runs,
        "seconds": args.seconds, "quick": args.quick,
        "environment": environment(), "workloads": {},
    }
    bad = 0
    for name in names:
        plain, traced = [], []
        for k in range(args.runs):
            plain.append(child(name, args.seed + k, args.seconds, 0,
                               args.quick))
            print(f"# {name} seed {args.seed + k}: untraced done",
                  file=sys.stderr)
        traced.append(child(name, args.seed, args.seconds, 1, args.quick))
        first = plain[0]
        entry = {
            "why": first["why"], "seed": args.seed, "mix": first["mix"],
            "clients": first["clients"], "workers": first["workers"],
            "passes": first["passes"], "statements": first["statements"],
            "attempted": sum(r["attempted"] for r in plain),
            "failed": sum(r["failed"] for r in plain + traced),
            "wrong": sum(r["wrong"] for r in plain + traced),
            "end_to_end": summarize([r["values"] for r in plain]),
            "per_layer": summarize([r["values"] for r in traced]),
            "probe_missing": traced[0]["probe_missing"],
            "errors": first["errors"] + traced[0]["errors"],
        }
        bad += entry["failed"] + entry["wrong"]
        result["workloads"][name] = entry
        print_workload(name, entry)
    print(f"\nenvironment: {json.dumps(result['environment'])}")
    if not args.quick:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
        print(f"wrote {out}")
    return 1 if bad else 0


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}"


def print_workload(name: str, entry: dict) -> None:
    print(f"\n== {name}: {entry['statements']} statements x "
          f"{entry['passes']} passes, {entry['clients']} client(s), "
          f"{entry['workers']} worker(s); {CLOSED_LOOP}")
    print(f"   {entry['why']}")
    for spec in M.END_TO_END:
        cell = entry["end_to_end"][spec.name]
        bound = "exact" if not spec.bound else f"{spec.bound:.0%}"
        extra = (f"  spread {cell['spread']:.1%}"
                 if "spread" in cell else "")
        print(f"   {spec.name:<34}{_fmt(cell['value']):>12} "
              f"{spec.unit:<6} bound {bound}{extra}")
    for spec in M.PER_LAYER:
        cell = entry["per_layer"].get(spec.name, {"value": None})
        note = ("  probe_missing" if cell["value"] is None
                and entry["probe_missing"] else "")
        print(f"   {spec.name:<34}{_fmt(cell['value']):>12} "
              f"{spec.unit:<6}{note}")
    for error in entry["errors"]:
        print(f"   ! statement {error[0]}: {error[1]}")


# -- compare ------------------------------------------------------------------

# an exact metric (bound 0) that depends on the generated literals --
# bytes logged per write -- moves by a fraction of a percent with the
# seed; it is held to exact only when both files ran the same seeds
SEED_ALLOWANCE = 0.01


def verdict(spec, a: dict, b: dict, same_seeds: bool = True) -> tuple:
    """``(ratio, verdict)`` of B against baseline A for one metric."""
    va, vb = a.get("value"), b.get("value")
    if va is None and vb is None:
        return None, "n/a"
    if va is None or vb is None:
        return None, "unresolved"
    ratio = vb / va if va else None
    bound = spec.bound or (0.0 if same_seeds else SEED_ALLOWANCE)
    if spec.bound and max(a.get("spread", 0.0),
                          b.get("spread", 0.0)) > bound:
        return ratio, "unresolved"
    if spec.better == "lower":
        worse = vb > va * (1 + bound)
    else:
        worse = vb < va * (1 - bound)
    return ratio, "worse" if worse else "within"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    print(f"{'workload':<16}{'metric':<22}{'A':>12}{'B':>12}"
          f"{'B/A':>8}  verdict (bound; base = A)")
    flagged = 0
    same_seeds = (a.get("seed"), a.get("runs")) == (b.get("seed"),
                                                    b.get("runs"))
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:<16}missing from B: unresolved")
            flagged += 1
            continue
        ea = a["workloads"][name]["end_to_end"]
        eb = b["workloads"][name]["end_to_end"]
        for spec in M.END_TO_END:
            ratio, word = verdict(spec, ea.get(spec.name, {}),
                                  eb.get(spec.name, {}), same_seeds)
            if word == "n/a":
                continue
            flagged += word != "within"
            bound = "exact" if not spec.bound else f"{spec.bound:.0%}"
            print(f"{name:<16}{spec.name:<22}"
                  f"{_fmt(ea[spec.name]['value']):>12}"
                  f"{_fmt(eb[spec.name]['value']):>12}"
                  f"{_fmt(ratio):>8}  {word} ({bound})")
    return 1 if flagged else 0


def contract() -> dict:
    """BENCHMARK.json, from the tables it must agree with."""
    end_to_end, per_layer = M.benchmark_json_metrics()
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": build(name, 0, 0.1).why}
                      for name in WORKLOADS],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


# -- entry --------------------------------------------------------------------

def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    if argv == ["contract"]:
        print(json.dumps(contract(), indent=2))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--workloads", help="comma-separated subset "
                        "(suite mode)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="suite mode: untraced runs per workload, "
                        "on seeds seed..seed+runs-1")
    parser.add_argument("--quick", action="store_true",
                        help="1 pass, one tenth the statements, "
                        "no JSON written")
    parser.add_argument("--out", default=str(OUT / "results.json"))
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return suite(args)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes decide set and dict orders inside the program;
        # pin them so a run is a function of the seed alone
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable,
                 [sys.executable, str(HERE / "run.py"), *argv])
    pin_to_one_cpu()
    report = run_one(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.quick)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
    for name, value in sorted(report["values"].items()):
        print(f"{name} = {_fmt(value)}")
    for error in report["errors"]:
        print(f"! statement {error[0]}: {error[1]}")
    if report.get("probe_missing"):
        print(f"probe_missing: {report['probe_missing']}")
    print(contract_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
