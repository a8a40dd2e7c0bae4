"""Databases and queries to hold a property over: the fixed-seed
``repro.qa`` generator (the CI fuzz sweep's seed) and every read
template of the in-memory perf workloads."""

from random import Random

from repro.qa.harness import case_seed
from repro.qa.oracle import DifferentialOracle
from repro.qa.query_gen import random_case

from tests.rules.test_scan_differential import WORKLOADS, workload_db

__all__ = ["generated_queries"]


def generated_queries(cases=160, workloads=True):
    """Yields ``(db, query)``; a generated database is closed when the
    iteration moves on."""
    oracle = DifferentialOracle()
    for index in range(cases):
        case, __ = random_case(Random(case_seed(20260808, index)))
        db = oracle.build_db(case)
        try:
            try:
                db._translate_single(case.query)
            except Exception:
                continue  # a generator miss, skipped by the sweep too
            yield db, case.query
        finally:
            db.close()
    for name in sorted(WORKLOADS) if workloads else ():
        db = workload_db(name)
        for query in WORKLOADS[name][2]:
            yield db, query
