"""Seeded workloads for the pose benchmark.

Each workload is a deployment builder plus an endless, seeded stream of
``(piql_text, requester)`` poses.  The same seed gives the same tables and
the same stream; the program under test sees only the generated inputs.

Two deployment shapes:

* the *pipeline* shape of ``benchmarks/bench_pipeline.py`` — three
  sources (``HMO1``, ``HMO2``, ``LAB1``) of 1540 patients each, drawn
  from one seeded population of 3080 so that a person can sit in several
  sources (what the integrator's Bloom dedup exists for).  Every age
  holds the same number of people in the population and in each source,
  so poses of one kind do about the same amount of work and the
  latency quantiles do not depend on which ages a seed favours.
  Its engine dispatches to the three sources one after another on the
  posing thread: their work is CPU-bound under one interpreter lock, so
  worker threads would add no parallelism, only lock hand-offs whose
  cost follows the host's scheduler (with threads, p50 moved 1.5x
  between rounds of one process; one after another, 1.3x);
* the *fan-out* shape — eight sources of 64 rows each with the disclosure
  observatory on and a write-ahead log flushed on every append, so the
  fixed per-pose cost (dispatch, caches, settlement) dominates.  The log
  is not fsynced: an fsync waits on the host's shared disk, whose
  latency is not the program's.  With fsync on, the p50 (answer-cache
  hits, one append each) spread 0.2 to 0.3 across runs while the
  CPU-bound p90 (the fan-out) held.

Every builder also has a *reference* form: the same data and policies
with the plainest engine (sequential dispatch, no mediation cache, no
static gate, no observatory, no persistence).  The benchmark replays each
run's poses through it to obtain the expected outcome of every pose.  Its
warehouse, left without the cache's epoch vectors, answers an exact
repeat of a requester's query with the answer it first computed, which
is what a repeat must return; every other pose is computed afresh.
"""

from __future__ import annotations

import itertools
import random

from repro import PrivateIye
from repro.data.names import FIRST_NAMES, LAST_NAMES
from repro.mediator.dispatch import DispatchPolicy
from repro.persistence import PersistenceSink
from repro.persistence.wal import WalBackend
from repro.relational import Table

PIPELINE_SOURCES = ("HMO1", "HMO2", "LAB1")
CITIES = ("pittsburgh", "butler", "erie")
MIN_AGE, MAX_AGE = 18, 87
#: People of each age in the population, and in each source.
PIPELINE_PER_AGE = 44
SOURCE_PER_AGE = 22

PIPELINE_POLICIES = """
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
    ALLOW //patient/first FOR research;
    ALLOW //patient/last FOR research;
}}
"""

FANOUT_SOURCES = 8
FANOUT_ROWS = 64
FANOUT_REQUESTERS = 16
FANOUT_POOL = 8          # shared query pool the requesters re-pose from
FANOUT_PER_REQUESTER = 3  # pool queries each requester re-poses
FANOUT_FRESH = 0.15       # share of poses that are fresh record queries
#: Dispatcher threads per pose.  The default pool starts a thread per
#: source and attempt; on a two-core host eight threads per pose made
#: the fan-out's latency follow the scheduler (p90 and poses_per_s
#: spread 0.22 to 0.25 across runs).  Two workers still start a pool and
#: queue all eight sources on it every pose.
FANOUT_WORKERS = 2

FANOUT_POLICY = """
POLICY {name} DEFAULT deny {{
    ALLOW //patient/age FOR research;
    ALLOW //patient/visits FOR research;
    ALLOW //patient/city FOR research;
}}
"""

#: Every fifth pose of a pipeline workload is a *wide* one that takes two
#: to three times as long as the others.  p50 then falls among the narrow
#: poses and p90 in the middle of the wide ones, each away from the edge
#: between them; with poses all alike, p90 sat at the edge of the slow
#: tail that host load and collector pauses add, and moved with them
#: (0.22 across runs, against 0.08 for p50).
WIDE_EVERY = 5

#: Age bands of the audit workload: every narrow pose asks about one
#: 14-year band (a wide one about all five), so each source's audit basis
#: has rank at most five and the per-pose audit cost reaches its plateau
#: within the first poses (with unaligned intervals the rank, and the
#: cost, keeps growing for 70 poses).  The audit cost grows with the
#: interval's width, so one width per kind keeps the poses of a kind
#: alike.
AUDIT_BANDS = tuple((low, low + 13) for low in range(MIN_AGE, MAX_AGE, 14))


class Deployment:
    """A built system plus whatever it holds open (the WAL sink)."""

    def __init__(self, system, wal_dir=None):
        self.system = system
        self.engine = system.engine
        self.wal_dir = wal_dir

    def close(self):
        """Close the persistence sink, if any; safe to call twice."""
        if self.system.persistence is not None:
            self.system.persistence.close()


# -- data ------------------------------------------------------------------


def pipeline_tables(seed):
    """``{source: Table}`` for the three pipeline sources."""
    rng = random.Random(f"pipeline-{seed}")
    by_age = {
        age: [
            {
                "ssn": f"{100000 + (age - MIN_AGE) * PIPELINE_PER_AGE + i}",
                "first": rng.choice(FIRST_NAMES),
                "last": rng.choice(LAST_NAMES),
                "age": age,
                "hba1c": round(55.0 + 35.0 * rng.random(), 1),
                "city": rng.choice(CITIES),
            }
            for i in range(PIPELINE_PER_AGE)
        ]
        for age in range(MIN_AGE, MAX_AGE + 1)
    }
    tables = {}
    for name in PIPELINE_SOURCES:
        rows = [dict(person) for people in by_age.values()
                for person in rng.sample(people, SOURCE_PER_AGE)]
        rng.shuffle(rows)
        tables[name] = Table.from_dicts("patients", rows)
    return tables


def fanout_tables(seed):
    """``{source: Table}`` for the eight fan-out sources."""
    rng = random.Random(f"fanout-{seed}")
    return {
        f"src{index:02d}": Table.from_dicts("patients", [
            {"age": rng.randint(20, 79), "visits": rng.randrange(12),
             "city": rng.choice(CITIES)}
            for _ in range(FANOUT_ROWS)
        ])
        for index in range(FANOUT_SOURCES)
    }


# -- deployments -----------------------------------------------------------


def build_pipeline(seed, reference=False):
    """The three-source pipeline deployment, schema built."""
    options = {"dispatch": DispatchPolicy(mode="sequential")}
    options.update(_reference_options(reference))
    system = PrivateIye(linkage_attributes=("first", "last"), **options)
    for name, table in pipeline_tables(seed).items():
        system.load_policies(PIPELINE_POLICIES.format(name=name),
                             view_source={f"{name}_private": name})
        system.add_relational_source(name, table)
    system.vocabulary()
    return Deployment(system)


def build_fanout(seed, wal_dir=None, reference=False):
    """The eight-source deployment; ``wal_dir`` holds its WAL.

    The reference form has neither observatory nor persistence.
    """
    if reference:
        system = PrivateIye(**_reference_options(True))
    else:
        system = PrivateIye(
            observatory=True,
            persistence=PersistenceSink(WalBackend(wal_dir, fsync=False)),
            dispatch=DispatchPolicy(max_workers=FANOUT_WORKERS),
        )
    for name, table in fanout_tables(seed).items():
        system.load_policies(FANOUT_POLICY.format(name=name))
        system.add_relational_source(name, table)
    system.vocabulary()
    return Deployment(system, wal_dir)


def _reference_options(reference):
    if not reference:
        return {}
    return {"cache": False, "static_check": False,
            "dispatch": DispatchPolicy(mode="sequential")}


# -- pose streams ----------------------------------------------------------


def _is_wide(index):
    return index % WIDE_EVERY == WIDE_EVERY - 1


def record_link_poses(seed):
    """Linkage attributes for one age (66 rows into the dedup).

    Every fifth pose asks for three adjacent ages (198 rows) instead.
    """
    rng = random.Random(f"record_link-{seed}")
    for index in itertools.count():
        span = 2 if _is_wide(index) else 0
        low = rng.randint(MIN_AGE, MAX_AGE - span)
        yield (
            "SELECT //patient/first, //patient/last, //patient/city "
            f"WHERE //patient/age >= {low} AND //patient/age <= {low + span} "
            "PURPOSE research MAXLOSS 0.9",
            f"link-{index}",
        )


def aggregate_audit_poses(seed):
    """One AVG/COUNT per requester over one age band.

    The bands come in rounds, each a seeded order of all five, so every
    band is asked equally often in any stretch of the stream.  Every
    fifth pose asks about all ages instead.
    """
    rng = random.Random(f"aggregate_audit-{seed}")
    bands = (band for _ in itertools.count()
             for band in rng.sample(AUDIT_BANDS, len(AUDIT_BANDS)))
    for index in itertools.count():
        low, high = ((MIN_AGE, MAX_AGE) if _is_wide(index)
                     else next(bands))
        yield (
            "SELECT AVG(//patient/hba1c) AS mean, COUNT(*) AS n "
            f"WHERE //patient/age >= {low} AND //patient/age <= {high} "
            "PURPOSE outbreak-surveillance MAXLOSS 0.6",
            f"audit-{index}",
        )


def _fanout_query(rng, aggregate):
    low = rng.randint(20, 70)
    high = low + rng.randint(2, 9)
    where = f"WHERE //patient/age >= {low} AND //patient/age <= {high}"
    if aggregate:
        return ("SELECT AVG(//patient/visits) AS visits, COUNT(*) AS n "
                f"{where} PURPOSE research")
    return f"SELECT //patient/age, //patient/visits {where} PURPOSE research"


def fanout_settle_poses(seed):
    """16 requesters re-posing a small pool, with fresh record queries.

    Each requester owns three queries of a shared eight-query pool (half
    of the pool are aggregates) and re-poses them; 15% of the poses are
    fresh record-level queries instead.  About 85% of the poses are then
    answer-cache hits, so p50 falls among the hits (guard, cache lookups,
    settlement) and p90 near the median miss (the fan-out to eight
    sources), each away from the boundary between the two; the tail of
    the misses, where dispatcher threads wait on one another, moves with
    host load far more than either.  Fresh queries are never
    aggregates: a novel aggregate probe advances the requester's cache
    epoch, which would make the hit ratio drift over the run.
    """
    rng = random.Random(f"fanout_settle-{seed}")
    pool = [_fanout_query(rng, aggregate=index % 2 == 1)
            for index in range(FANOUT_POOL)]
    owned = [rng.sample(pool, FANOUT_PER_REQUESTER)
             for _ in range(FANOUT_REQUESTERS)]
    while True:
        requester = rng.randrange(FANOUT_REQUESTERS)
        if rng.random() < FANOUT_FRESH:
            text = _fanout_query(rng, aggregate=False)
        else:
            text = rng.choice(owned[requester])
        yield text, f"req-{requester:02d}"


class Workload:
    """One benchmark workload: how to build it and what it poses."""

    def __init__(self, name, build, poses, durable=False,
                 text_fixes_outcome=False, min_poses=100):
        self.name = name
        self._build = build
        self.poses = poses
        #: Poses every run makes, whatever ``--seconds`` says (at least
        #: 100, so ten samples lie beyond p90); the peak resident memory
        #: is read when they are done.
        self.min_poses = min_poses
        #: Whether the deployment writes a WAL (durability check applies).
        self.durable = durable
        #: Whether a pose's text alone fixes its expected outcome: every
        #: pose has a requester of its own, and a repeated text leaves
        #: nothing behind that a later pose reads (a repeated audit
        #: interval is already in the auditor's span), so the reference
        #: needs each distinct text once, in order of first appearance.
        self.text_fixes_outcome = text_fixes_outcome

    def build(self, seed, wal_dir=None):
        """The measured deployment for ``seed``."""
        if self.durable:
            return self._build(seed, wal_dir=wal_dir)
        return self._build(seed)

    def build_reference(self, seed):
        """The plain-engine deployment that yields expected outcomes."""
        return self._build(seed, reference=True)


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("record_link", build_pipeline, record_link_poses,
                 text_fixes_outcome=True),
        Workload("aggregate_audit", build_pipeline, aggregate_audit_poses,
                 text_fixes_outcome=True),
        Workload("fanout_settle", build_fanout, fanout_settle_poses,
                 durable=True, min_poses=2000),
    )
}
