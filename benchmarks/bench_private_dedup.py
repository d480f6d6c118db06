"""Experiment A7: private deduplication in the result integrator (paper §5).

Duplicate-laden two-source patient records (with typos) are linked three
ways: plaintext Fellegi–Sunter (the non-private baseline), Bloom-filter
encodings, and exact PSI.  We report precision/recall and cost.

Expected shape: Bloom linkage matches plaintext accuracy (both tolerate
typos) at modest extra cost; PSI is exact-only (misses typos, perfect
precision) and costs the most; the private methods never expose plaintext
identifiers to the matcher.

The cost lane (``collect_results``, run by ``run_all.py``) times one
``BloomRecordEncoder.encode`` on a cold encoder (every q-gram hashed) and
a warm one (every q-gram mask memoized), and one integrator dedup over a
3-source, 200-row batch of pipeline-style names, cold (new integrator)
and warm (the integrator's second batch), against the per-row-hashing
reference in ``tests/mediator/dedup_oracle.py``.
"""

import importlib.util
import random
import time
from pathlib import Path

import pytest

from repro.crypto import TEST_GROUP
from repro.data.names import FIRST_NAMES, LAST_NAMES, introduce_typo, person_names
from repro.linkage import (
    BloomRecordEncoder,
    FellegiSunter,
    FieldComparison,
    bloom_link,
    link_tables,
    psi_link_exact,
)
from repro.mediator.integrator import ResultIntegrator

N_SHARED = 30
N_UNIQUE = 40
TYPO_RATE = 0.3

DEDUP_SOURCES = ("HMO1", "HMO2", "LAB1")
DEDUP_ROWS = 200
ENCODE_SAMPLES = 200
ORACLE_PATH = (Path(__file__).resolve().parents[1]
               / "tests" / "mediator" / "dedup_oracle.py")


def rosters(seed=21):
    rng = random.Random(seed)
    names = person_names(N_SHARED + 2 * N_UNIQUE, seed=seed)
    shared = [
        {"pid": i, "first": f, "last": l,
         "dob": f"19{40 + i % 60:02d}-0{1 + i % 9}-15"}
        for i, (f, l) in enumerate(names[:N_SHARED])
    ]
    a_only = [
        {"pid": 1000 + i, "first": f, "last": l, "dob": "1960-01-01"}
        for i, (f, l) in enumerate(names[N_SHARED:N_SHARED + N_UNIQUE])
    ]
    b_only = [
        {"pid": 2000 + i, "first": f, "last": l, "dob": "1970-02-02"}
        for i, (f, l) in enumerate(names[N_SHARED + N_UNIQUE:])
    ]
    side_a = shared + a_only
    side_b = [dict(p) for p in shared] + b_only
    n_typos = 0
    for record in side_b[:N_SHARED]:
        if rng.random() < TYPO_RATE:
            record["last"] = introduce_typo(record["last"], rng)
            n_typos += 1
    return side_a, side_b, n_typos


def truth_pairs(side_a, side_b):
    return {
        (a["pid"], b["pid"])
        for a in side_a for b in side_b if a["pid"] == b["pid"]
    }


def plaintext_links(side_a, side_b):
    classifier = FellegiSunter(
        [FieldComparison("first", m=0.95, u=0.03),
         FieldComparison("last", m=0.95, u=0.03),
         FieldComparison("dob", m=0.98, u=0.01,
                         similarity=lambda a, b: float(a == b), threshold=1.0)],
        upper=4.0,
    )
    return {
        (a["pid"], b["pid"]) for a, b, _s in link_tables(side_a, side_b, classifier)
    }


def bloom_links(side_a, side_b):
    encoder = BloomRecordEncoder(
        ["first", "last", "dob"], size=512, num_hashes=4, secret="a7"
    )
    return {
        (a["pid"], b["pid"])
        for a, b, _s in bloom_link(side_a, side_b, encoder, threshold=0.8)
    }


def psi_links(side_a, side_b):
    digests_a = {}
    shared, matched_a, matched_b = psi_link_exact(
        side_a, side_b, ["first", "last", "dob"],
        group=TEST_GROUP, rng=random.Random(9),
    )
    del digests_a, shared
    return {(a["pid"], b["pid"]) for a, b in zip(matched_a, matched_b)}


def precision_recall(found, truth):
    if not found:
        return 0.0, 0.0
    true_positives = len(found & truth)
    return true_positives / len(found), true_positives / len(truth)


METHODS = {
    "plaintext-FS": plaintext_links,
    "bloom": bloom_links,
    "psi-exact": psi_links,
}


@pytest.mark.parametrize("name", list(METHODS))
def test_dedup_method_cost(benchmark, name):
    side_a, side_b, _typos = rosters()
    benchmark.pedantic(
        METHODS[name], args=(side_a, side_b), rounds=1, iterations=1
    )


def test_accuracy_report(benchmark, report):
    side_a, side_b, n_typos = rosters()
    truth = truth_pairs(side_a, side_b)

    def run_all():
        return {name: fn(side_a, side_b) for name, fn in METHODS.items()}

    found = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(
        f"=== A7: private dedup ({N_SHARED} true duplicates, "
        f"{n_typos} with typos) ===",
        f"{'method':>14s} {'precision':>10s} {'recall':>8s}",
    )
    scores = {}
    for name, pairs in found.items():
        precision, recall = precision_recall(pairs, truth)
        scores[name] = (precision, recall)
        report(f"{name:>14s} {precision:10.2f} {recall:8.2f}")

    assert scores["plaintext-FS"][1] >= 0.95   # near-perfect baseline
    assert scores["bloom"][1] >= scores["plaintext-FS"][1] - 0.1
    assert scores["psi-exact"][0] == 1.0       # exact: no false positives
    expected_psi_recall = (N_SHARED - n_typos) / N_SHARED
    assert scores["psi-exact"][1] == pytest.approx(expected_psi_recall, abs=0.01)


# --- cost lane ----------------------------------------------------------------


def dedup_batch(seed=0):
    """A 3-source batch of :data:`DEDUP_ROWS` rows in integration order.

    Like the pipeline deployment: one population of first/last/city
    records, each source a sample of it, so a person can sit in several
    sources and the dedup has merges to make.
    """
    rng = random.Random(seed)
    people = [
        {"first": rng.choice(FIRST_NAMES), "last": rng.choice(LAST_NAMES),
         "city": rng.choice(("pittsburgh", "butler", "erie"))}
        for _ in range(DEDUP_ROWS)
    ]
    per_source = DEDUP_ROWS // len(DEDUP_SOURCES)
    rows = []
    for index, source in enumerate(DEDUP_SOURCES):
        count = per_source + (index < DEDUP_ROWS % len(DEDUP_SOURCES))
        rows.extend(dict(person, _source=source)
                    for person in rng.sample(people, count))
    return rows


def oracle_integrator(linkage):
    """The per-row-hashing reference integrator, loaded from the tests."""
    spec = importlib.util.spec_from_file_location("dedup_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ResultIntegrator(linkage)


def encode_us(rows):
    """Mean microseconds per ``encode``: cold (new encoder per row) and
    warm (one encoder that has seen every row once)."""
    fields = ["first", "last"]
    start = time.perf_counter()
    for row in rows:
        BloomRecordEncoder(fields).encode(row)
    cold = (time.perf_counter() - start) / len(rows)
    encoder = BloomRecordEncoder(fields)
    for row in rows:
        encoder.encode(row)
    start = time.perf_counter()
    for row in rows:
        encoder.encode(row)
    warm = (time.perf_counter() - start) / len(rows)
    return round(cold * 1e6, 1), round(warm * 1e6, 1)


def dedup_ms(dedup, rows):
    """``(milliseconds, duplicates removed)`` of one dedup over ``rows``."""
    start = time.perf_counter()
    _kept, removed = dedup([dict(row) for row in rows])
    return round((time.perf_counter() - start) * 1000.0, 2), removed


def collect_results(repeats=1):
    """The encode and dedup cost lane as a JSON-serializable dict.

    Each figure is the best of ``repeats`` runs.  The production dedup
    and the oracle must remove the same duplicates.
    """
    rows = dedup_batch()
    linkage = ("first", "last")
    best = {}
    for _ in range(max(1, repeats)):
        integrator = ResultIntegrator(None, linkage)
        cold_ms, removed = dedup_ms(integrator._private_dedup, rows)
        warm_ms, _ = dedup_ms(integrator._private_dedup, rows)
        oracle_ms, oracle_removed = dedup_ms(
            oracle_integrator(linkage)._private_dedup, rows)
        if removed != oracle_removed:
            raise AssertionError(
                f"dedup removed {removed}, oracle {oracle_removed}")
        cold_us, warm_us = encode_us(rows[:ENCODE_SAMPLES])
        run = {"encode_cold_us": cold_us, "encode_warm_us": warm_us,
               "dedup_cold_ms": cold_ms, "dedup_warm_ms": warm_ms,
               "dedup_oracle_ms": oracle_ms}
        for key, value in run.items():
            best[key] = min(best.get(key, value), value)
    return {"sources": len(DEDUP_SOURCES), "rows": len(rows),
            "duplicates_removed": removed, **best}


def test_dedup_cost_report(report):
    results = collect_results()
    report(
        f"=== A7b: private dedup cost ({results['sources']} sources, "
        f"{results['rows']} rows, {results['duplicates_removed']} merged) ===",
        f"encode: cold {results['encode_cold_us']:.1f} us, "
        f"warm {results['encode_warm_us']:.1f} us",
        f"dedup:  cold {results['dedup_cold_ms']:.2f} ms, "
        f"warm {results['dedup_warm_ms']:.2f} ms, "
        f"oracle {results['dedup_oracle_ms']:.2f} ms",
    )
    assert results["encode_warm_us"] < results["encode_cold_us"]
    assert results["dedup_warm_ms"] < results["dedup_oracle_ms"]
