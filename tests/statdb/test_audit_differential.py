"""Differential suite: the atom auditor against the dense-vector oracle.

Seeded query-set sequences run through :class:`repro.statdb.SumAuditor`
and the reference in :mod:`tests.statdb.audit_oracle` side by side.
After every step both must agree on the decision, the refusal text, the
records ``compromised_now()`` reports and ``len(answered)``.  The
sequences mix intervals, random subsets, singletons, the full set, exact
repeats and out-of-range sets, with ``would_compromise`` probes in
between, so refusals land mid-sequence and later queries run against the
state a refusal left.  An engine-level case poses one audited aggregate
stream through :class:`repro.PrivateIye` twice, once with every source's
auditor swapped for the oracle.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import PrivateIye
from repro.errors import PrivacyViolation, ReproError
from repro.mediator.dispatch import DispatchPolicy
from repro.relational import Table
from repro.statdb import SumAuditor
from tests.statdb.audit_oracle import SumAuditor as OracleAuditor

SEQUENCES = 600
KINDS = ("interval", "subset", "singleton", "full", "repeat", "invalid")
KIND_WEIGHTS = (6, 4, 1, 1, 2, 1)
PROBE_SHARE = 0.3


def _query_set(rng, n, posed):
    kind = rng.choices(KINDS, KIND_WEIGHTS)[0]
    if kind == "repeat" and not posed:
        kind = "full"
    if kind == "interval":
        low = rng.randrange(n)
        return kind, list(range(low, rng.randrange(low, n) + 1))
    if kind == "subset":
        return kind, rng.sample(range(n), rng.randint(1, n))
    if kind == "singleton":
        return kind, [rng.randrange(n)]
    if kind == "full":
        return kind, list(range(n))
    if kind == "repeat":
        return kind, list(rng.choice(posed))
    return kind, [rng.randrange(n), n + rng.randrange(3)]


def _call(method, query_set):
    try:
        return "ok", method(query_set)
    except ReproError as error:
        return type(error).__name__, str(error)


def run_sequence(seed, tally):
    """Drive one seeded sequence through both auditors; return mismatches."""
    rng = random.Random(f"audit-differential-{seed}")
    n = rng.randint(1, 40)
    auditor, oracle = SumAuditor(n), OracleAuditor(n)
    posed = []
    refused_before = False
    for step in range(rng.randint(1, 14)):
        kind, query_set = _query_set(rng, n, posed)
        posed.append(query_set)
        method = ("would_compromise" if rng.random() < PROBE_SHARE
                  else "check_and_record")
        got = _call(getattr(auditor, method), query_set)
        want = _call(getattr(oracle, method), query_set)
        state = (auditor.compromised_now(), len(auditor.answered))
        expected = (oracle.compromised_now(), len(oracle.answered))
        if got != want or state != expected:
            return [f"seed {seed} step {step} ({kind}, {method}, n={n}): "
                    f"{got} {state} != oracle {want} {expected}"]
        tally[kind] += 1
        tally[method] += 1
        if method == "check_and_record":
            if got[0] == "AuditRefusal":
                tally["refused"] += 1
                refused_before = True
            elif got[0] == "ok" and refused_before:
                tally["accepted after a refusal"] += 1
        elif got == ("ok", True):
            tally["probe would compromise"] += 1
    tally[f"n={n}"] += 1
    return []


def test_atom_auditor_matches_oracle():
    tally = Counter()
    mismatches = []
    for seed in range(SEQUENCES):
        mismatches += run_sequence(seed, tally)
    assert mismatches == []
    # The sequences reach every case the suite claims to cover.
    for kind in KINDS + ("would_compromise", "check_and_record"):
        assert tally[kind] > 0, kind
    assert tally["refused"] >= 50
    assert tally["accepted after a refusal"] >= 50
    assert tally["probe would compromise"] >= 20
    assert tally["n=1"] > 0 and tally["n=40"] > 0


# -- engine level --------------------------------------------------------------

POLICIES = """
VIEW {name}_private {{
    PRIVATE //patient/ssn;
    PRIVATE //patient/hba1c FORM aggregate;
    PRIVATE //patient/age FORM range;
}}

POLICY {name} DEFAULT deny {{
    DENY //patient/ssn FOR *;
    ALLOW //patient/hba1c FOR public-health-research FORM aggregate MAXLOSS 0.6;
    ALLOW //patient/age FOR research FORM range;
    ALLOW //patient/city FOR research;
}}
"""

MIN_AGE, MAX_AGE = 18, 47


def _system(seed, auditor_class=None):
    """Two sources whose ages hold one to four people each, so intervals
    differing by one age isolate a record and the audit has to refuse."""
    rng = random.Random(f"audit-engine-{seed}")
    system = PrivateIye(dispatch=DispatchPolicy(mode="sequential"))
    for name in ("HMO1", "HMO2"):
        rows = [
            {"ssn": f"{name}-{age}-{i}", "age": age,
             "hba1c": round(55.0 + 35.0 * rng.random(), 1),
             "city": rng.choice(("erie", "butler"))}
            for age in range(MIN_AGE, MAX_AGE + 1)
            for i in range(rng.choice((1, 1, 2, 4)))
        ]
        system.load_policies(POLICIES.format(name=name),
                             view_source={f"{name}_private": name})
        system.add_relational_source(name, Table.from_dicts("patients", rows))
        if auditor_class is not None:
            source = system.engine.sources[name]
            source.auditor = auditor_class(source.auditor.n_records)
    return system


def _poses(seed, count):
    rng = random.Random(f"audit-engine-poses-{seed}")
    for index in range(count):
        low = rng.randint(MIN_AGE, MAX_AGE - 6)
        high = rng.randint(low + 5, MAX_AGE)
        yield (
            "SELECT AVG(//patient/hba1c) AS mean, COUNT(*) AS n "
            f"WHERE //patient/age >= {low} AND //patient/age <= {high} "
            "PURPOSE outbreak-surveillance MAXLOSS 0.6",
            f"audit-{index}",
        )


def _outcomes(system, poses):
    outcomes = []
    for text, requester in poses:
        try:
            result = system.query(text, requester=requester)
        except PrivacyViolation as refusal:
            outcomes.append((type(refusal).__name__, str(refusal)))
            continue
        rows = sorted(sorted(row.items()) for row in result.rows)
        outcomes.append(("answered", rows, result.aggregated_loss,
                         sorted(result.refused_sources.items())))
    return outcomes


@pytest.mark.parametrize("seed", [1, 2])
def test_engine_answers_match_oracle_auditor(seed):
    atoms = _system(seed)
    dense = _system(seed, OracleAuditor)
    assert all(isinstance(source.auditor, OracleAuditor)
               for source in dense.engine.sources.values())
    poses = list(_poses(seed, 60))
    got, want = _outcomes(atoms, poses), _outcomes(dense, poses)
    assert got == want
    # Audit refusals, whole or per source, are among the compared outcomes.
    assert sum("would expose" in repr(outcome) for outcome in want) >= 5
    assert sum(outcome[0] == "answered" for outcome in want) >= 20
    assert [len(s.auditor.answered) for s in atoms.engine.sources.values()] \
        == [len(s.auditor.answered) for s in dense.engine.sources.values()]
