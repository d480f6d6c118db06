"""Experiment A3: sequence-of-queries defenses vs the tracker attack.

Paper §4 poses the open problem: "how do we ensure that a set of query
results … cannot be combined together to violate data privacy?"  We run
the classic individual-tracker attack against four defense stacks and
report breach rate, legitimate-query overhead, and per-query cost.

Expected shape: the bare size control is fully breached; audit and overlap
control drive the breach rate to zero; audit costs the most per query.

The history-growth lane times one audit check at several history lengths
over 1500-record interval query sets, for :class:`SumAuditor` (record
atoms) and for the dense record-vector reference kept in
``tests/statdb/audit_oracle.py``.  Expected shape: the reference grows
with the history (hundreds of ms per check by the 120th); the atom
auditor stays around a millisecond.
"""

import importlib.util
import random
import time
from pathlib import Path

import pytest

from repro.errors import AuditRefusal, PrivacyViolation
from repro.relational import Comparison, Table
from repro.statdb import (
    ProtectedStatDB,
    StatQuery,
    SumAuditor,
    individual_tracker_attack,
)
from repro.statdb.tracker import true_value

N_ROWS = 120
N_VICTIMS = 12

HISTORY_RECORDS = 1500
#: The checks (1st, 10th, ...) whose duration the history lane reports.
HISTORY_POINTS = (1, 10, 60, 120)
#: Shortest interval the lane poses, so the sets stay aggregate-sized.
HISTORY_MIN_WIDTH = 100
ORACLE_PATH = (Path(__file__).resolve().parents[1]
               / "tests" / "statdb" / "audit_oracle.py")

DEFENSES = {
    "size-only": dict(min_set_size=3, restrict_complement=False),
    "size+complement": dict(min_set_size=3, restrict_complement=True),
    "size+audit": dict(min_set_size=3, restrict_complement=False, audit=True),
    "size+overlap": dict(min_set_size=3, restrict_complement=False,
                         max_overlap=3),
}


def salaries_table():
    rows = [
        {"id": i, "dept": ["sales", "eng", "hr"][i % 3],
         "salary": 1000.0 + 37.0 * i}
        for i in range(N_ROWS)
    ]
    return Table.from_dicts("salaries", rows)


def run_attacks(defense_kwargs):
    db = ProtectedStatDB(salaries_table(), **defense_kwargs)
    breaches = 0
    refused = 0
    for victim in range(N_VICTIMS):
        result = individual_tracker_attack(
            db,
            Comparison("id", "=", victim),
            Comparison("dept", "=", "sales"),
            func="sum",
            column="salary",
        )
        if not result.succeeded:
            refused += 1
            continue
        truth = true_value(
            db, Comparison("id", "=", victim), func="sum", column="salary"
        )
        if abs(result.inferred_value - truth) < 1e-6:
            breaches += 1
    return breaches, refused, db


def collect_results(repeats=1):
    """The defense sweep as a JSON-serializable dict (for run_all).

    The attack is deterministic, so ``repeats`` only steadies the
    per-defense timing (the minimum over runs is kept).
    """
    defenses = {}
    for name, kwargs in DEFENSES.items():
        best_elapsed = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            breaches, refused, _db = run_attacks(kwargs)
            elapsed = time.perf_counter() - start
            if best_elapsed is None or elapsed < best_elapsed:
                best_elapsed = elapsed
        defenses[name] = {
            "breaches": breaches,
            "attacks_blocked": refused,
            "legit_answered": legitimate_throughput(kwargs),
            "elapsed_s": round(best_elapsed, 4),
        }
    return {
        "victims": N_VICTIMS,
        "records": N_ROWS,
        "defenses": defenses,
        "history_growth": history_growth(),
    }


def oracle_auditor_class():
    """The dense record-vector reference auditor, loaded from the tests."""
    spec = importlib.util.spec_from_file_location("audit_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SumAuditor


def history_check_ms(auditor_class, seed=0):
    """Milliseconds of the checks numbered in :data:`HISTORY_POINTS`.

    One auditor over :data:`HISTORY_RECORDS` records answers seeded
    random intervals; a refused interval counts as a check too.
    """
    rng = random.Random(seed)
    auditor = auditor_class(HISTORY_RECORDS)
    timings = {}
    for check in range(1, max(HISTORY_POINTS) + 1):
        low = rng.randrange(HISTORY_RECORDS - HISTORY_MIN_WIDTH)
        high = rng.randrange(low + HISTORY_MIN_WIDTH, HISTORY_RECORDS + 1)
        start = time.perf_counter()
        try:
            auditor.check_and_record(range(low, high))
        except AuditRefusal:
            pass
        if check in HISTORY_POINTS:
            timings[check] = round((time.perf_counter() - start) * 1000.0, 3)
    return timings


def history_growth():
    """Per-check ms by history length, atom auditor and dense oracle."""
    return {
        "records": HISTORY_RECORDS,
        "atoms_ms": history_check_ms(SumAuditor),
        "oracle_ms": history_check_ms(oracle_auditor_class()),
    }


def legitimate_throughput(defense_kwargs):
    """How many disjoint departmental aggregates still get answered."""
    db = ProtectedStatDB(salaries_table(), **defense_kwargs)
    answered = 0
    for dept in ("sales", "eng", "hr"):
        try:
            db.answer(StatQuery("avg", "salary", Comparison("dept", "=", dept)))
            answered += 1
        except PrivacyViolation:
            pass
    return answered


@pytest.mark.parametrize("name", list(DEFENSES))
def test_defense_query_cost(benchmark, name):
    kwargs = DEFENSES[name]

    def answer_one():
        db = ProtectedStatDB(salaries_table(), **kwargs)
        return db.answer(
            StatQuery("avg", "salary", Comparison("dept", "=", "sales"))
        )

    benchmark(answer_one)


def test_breach_rates_and_report(benchmark, report):
    def sweep():
        rows = []
        for name, kwargs in DEFENSES.items():
            start = time.perf_counter()
            breaches, refused, _db = run_attacks(kwargs)
            elapsed = time.perf_counter() - start
            answered = legitimate_throughput(kwargs)
            rows.append((name, breaches, refused, answered, elapsed))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        f"=== A3: tracker attack vs defenses ({N_VICTIMS} victims, "
        f"{N_ROWS} records) ===",
        f"{'defense':>16s} {'breaches':>9s} {'attacks blocked':>16s} "
        f"{'legit answered':>15s}",
    )
    results = {}
    for name, breaches, refused, answered, _elapsed in rows:
        results[name] = (breaches, refused, answered)
        report(
            f"{name:>16s} {breaches:>4d}/{N_VICTIMS:<4d} "
            f"{refused:>16d} {answered:>12d}/3"
        )
    assert results["size-only"][0] == N_VICTIMS       # fully breached
    assert results["size+audit"][0] == 0              # audit stops it
    assert results["size+overlap"][0] == 0            # overlap stops it
    assert results["size+audit"][2] == 3              # legit queries survive
    assert results["size+overlap"][2] == 3


def test_history_growth_report(report):
    growth = history_growth()
    report(
        f"=== A3b: per-check audit cost by history "
        f"({HISTORY_RECORDS}-record interval query sets) ===",
        f"{'history':>8s} {'atoms ms':>10s} {'oracle ms':>10s}",
    )
    for check in HISTORY_POINTS:
        report(f"{check:>8d} {growth['atoms_ms'][check]:>10.3f} "
               f"{growth['oracle_ms'][check]:>10.3f}")
    assert growth["atoms_ms"][120] < growth["oracle_ms"][120]
