"""Differential tests: the integrator's private dedup against its oracle.

The production dedup keeps one encoder (with its q-gram memo) per set of
linkage fields for the integrator's lifetime and compares int bit sets
against cached popcounts; :mod:`tests.mediator.dedup_oracle` encodes every
row afresh and compares ``BloomFilter`` objects.  On seeded row sets built
from the linkage name pools — typos, case and whitespace variants,
non-ASCII names, int identifiers, several same-name rows in one source —
both must produce the same filter bits, the same kept rows in the same
order with the same ``_source`` labels, and the same duplicate count.

Every generated row carries at least one non-blank, truthy identifier:
the oracle keeps the old handling of missing identifiers, which the
nameless-row tests below pin separately.
"""

import math
import random

import pytest

from repro.data.names import FIRST_NAMES, LAST_NAMES, introduce_typo
from repro.mediator.integrator import ResultIntegrator
from tests.mediator import dedup_oracle

SOURCES = ("HMO1", "HMO2", "LAB1", "CLINIC")
EXTRA_FIRST = ("josé", "zoë", "łukasz", "søren", "ōtsuka", "françois", "åsa")
EXTRA_LAST = ("müller", "nguyễn", "ørsted", "şahin", "dvořák", "o'brien")
#: Linkage attribute sets; ``ssn`` appears in no generated row.
LINKAGES = (
    ("first", "last"),
    ("first", "last", "dob"),
    ("last",),
    ("first", "last", "age"),
    ("ssn", "first", "last"),
)
SECRETS = ("integration", "other-secret")
N_BATCHES = 10
SETS_PER_BATCH = 50  # 500 row sets in all


def _variant(text, rng):
    roll = rng.random()
    if roll < 0.25:
        return introduce_typo(text, rng)
    if roll < 0.35:
        return text.upper()
    if roll < 0.45:
        return text.title()
    if roll < 0.55:
        return f"  {text} "
    return text


def _person(rng):
    first = rng.choice(FIRST_NAMES + EXTRA_FIRST)
    last = rng.choice(LAST_NAMES + EXTRA_LAST)
    return {"first": first, "last": last,
            "dob": f"19{rng.randrange(40, 99)}-0{rng.randrange(1, 10)}-1{rng.randrange(10)}",
            "age": rng.randrange(1, 99)}


def _row(person, source, linkage, rng):
    row = {key: _variant(value, rng) if isinstance(value, str) else value
           for key, value in person.items()}
    # One field may go missing or blank, unless it is the row's only
    # identifier under ``linkage``.
    gone = rng.choice((None, None, None, "first", "last", "dob", "age"))
    if gone is not None and any(row.get(f) for f in linkage if f != gone):
        if rng.random() < 0.5:
            row[gone] = rng.choice((None, ""))
        else:
            del row[gone]
    row["city"] = rng.choice(("erie", "butler", "", None))
    row["_source"] = source
    return row


def row_set(linkage, rng):
    """Rows of 2–4 sources in integration order (sources sorted)."""
    people = [_person(rng) for _ in range(rng.randrange(2, 9))]
    sources = sorted(rng.sample(SOURCES, rng.randrange(2, 5)))
    rows = []
    for source in sources:
        for _ in range(rng.randrange(0, 9)):
            rows.append(_row(rng.choice(people), source, linkage, rng))
    return rows


def _cross_source_dice(oracle, rows):
    """Every Dice value between rows of two sources, by the oracle."""
    fields = [f for f in oracle.linkage_attributes
              if any(f in row for row in rows)]
    if not fields:
        return []
    encoder = dedup_oracle.BloomRecordEncoder(
        fields, secret=oracle.bloom_secret)
    blooms = [(row["_source"], encoder.encode(row)) for row in rows]
    return sorted({a.dice_similarity(b)
                   for i, (source_a, a) in enumerate(blooms)
                   for source_b, b in blooms[i + 1:] if source_a != source_b})


def _thresholds(oracle, rows, rng):
    """The 0.85 boundary and just below it, then a Dice value some
    cross-source pair has and just above it (that pair merges at the
    first and not at the second)."""
    thresholds = [0.85, math.nextafter(0.85, 0.0)]
    observed = [value for value in _cross_source_dice(oracle, rows)
                if value >= 0.5]
    if observed:
        value = rng.choice(observed)
        thresholds += [value, math.nextafter(value, 1.0)]
    return thresholds


@pytest.mark.parametrize("batch", range(N_BATCHES))
def test_dedup_matches_oracle(batch):
    rng = random.Random(f"dedup-differential-{batch}")
    # One long-lived integrator per configuration, as in a deployment:
    # its encoders and their memos stay warm across row sets.
    integrators = {}
    for _ in range(SETS_PER_BATCH):
        linkage = rng.choice(LINKAGES)
        rows = row_set(linkage, rng)
        secret = rng.choice(SECRETS)
        integrator = integrators.setdefault(
            (linkage, secret),
            ResultIntegrator(None, linkage, bloom_secret=secret))
        oracle = dedup_oracle.ResultIntegrator(linkage, bloom_secret=secret)
        for threshold in _thresholds(oracle, rows, rng):
            integrator.dedup_threshold = threshold
            oracle.dedup_threshold = threshold
            expected = oracle._private_dedup([dict(r) for r in rows])
            actual = integrator._private_dedup([dict(r) for r in rows])
            assert actual == expected, (threshold, rows)
            assert [r["_source"] for r in actual[0]] == [
                r["_source"] for r in expected[0]]

        fields = tuple(f for f in linkage if any(f in row for row in rows))
        if fields:
            ours = integrator._encoder(fields)
            theirs = dedup_oracle.BloomRecordEncoder(fields, secret=secret)
            for row in rows:
                assert ours.encode(row).bits == theirs.encode(row).bits


def test_the_0_85_boundary_is_inclusive():
    # Under the default secret these two rows have Dice exactly 0.85: they
    # merge at the default threshold and stay apart just above it.
    rows = [{"first": "robert", "last": "anderson", "_source": "HMO1"},
            {"first": "robert", "last": "adnerson", "_source": "LAB1"}]
    linkage = ("first", "last")
    outcomes = []
    for threshold in (math.nextafter(0.85, 0.0), 0.85,
                      math.nextafter(0.85, 1.0)):
        integrator = ResultIntegrator(None, linkage, dedup_threshold=threshold)
        oracle = dedup_oracle.ResultIntegrator(linkage,
                                               dedup_threshold=threshold)
        actual = integrator._private_dedup(rows)
        assert actual == oracle._private_dedup(rows)
        outcomes.append(actual[1])
    assert outcomes == [1, 1, 0]


class TestNamelessRows:
    LINKAGE = ("first", "last")

    def dedup(self, rows):
        return ResultIntegrator(None, self.LINKAGE)._private_dedup(rows)

    def test_nameless_rows_of_two_sources_stay_apart(self):
        rows = [{"first": None, "last": None, "age": 30, "_source": "HMO1"},
                {"first": "", "last": "  ", "age": 25, "_source": "LAB1"},
                {"age": 41, "_source": "LAB2"}]
        kept, removed = self.dedup(rows)
        assert removed == 0
        assert kept == rows

    def test_named_row_never_merges_into_a_nameless_one(self):
        rows = [{"first": None, "last": None, "age": 30, "_source": "HMO1"},
                {"first": "ana", "last": "silva", "age": 25, "_source": "LAB1"},
                {"first": "ana", "last": "silva", "age": 25, "_source": "LAB2"}]
        kept, removed = self.dedup(rows)
        assert removed == 1
        assert [row["_source"] for row in kept] == ["HMO1", "LAB1+LAB2"]

    def test_one_identifier_is_enough_to_link(self):
        rows = [{"first": None, "last": "silva", "_source": "HMO1"},
                {"first": "", "last": "silva", "_source": "LAB1"}]
        kept, removed = self.dedup(rows)
        assert removed == 1
        assert kept[0]["_source"] == "HMO1+LAB1"

    def test_zero_is_an_identifier(self):
        rows = [{"pin": 0, "_source": "HMO1"},
                {"pin": 0, "_source": "LAB1"},
                {"pin": "", "_source": "LAB2"}]
        kept, removed = ResultIntegrator(None, ("pin",))._private_dedup(rows)
        assert removed == 1
        assert [row["_source"] for row in kept] == ["HMO1+LAB1", "LAB2"]


def test_integrators_with_different_secrets_encode_differently():
    row = {"first": "ana", "last": "silva", "_source": "HMO1"}
    fields = ("first", "last")
    bits = []
    for secret in ("integration", "other-secret"):
        integrator = ResultIntegrator(None, fields, bloom_secret=secret)
        integrator._private_dedup([row])
        bits.append(integrator._encoder(fields).encode(row).bits)
    assert bits[0] != bits[1]


def test_integrator_keeps_its_encoder_across_poses():
    integrator = ResultIntegrator(None, ("first", "last"))
    rows = [{"first": "ana", "last": "silva", "_source": "HMO1"}]
    integrator._private_dedup(rows)
    encoder = integrator._encoder(("first", "last"))
    integrator._private_dedup(rows)
    assert integrator._encoder(("first", "last")) is encoder
    # a row set without "last" uses an encoder of its own
    integrator._private_dedup([{"first": "ana", "_source": "HMO1"}])
    assert integrator._encoder(("first",)) is not encoder
