"""The Bloom record encoder's q-gram mask memo: bounded, exact, isolated."""

import random
import string

from repro.crypto.bloom import BloomFilter
from repro.linkage.private import GRAM_MEMO_CAP, BloomRecordEncoder
from repro.linkage.similarity import record_qgrams


def fresh_bits(encoder, record):
    """The bits a new filter gets from inserting the record's grams."""
    bloom = BloomFilter(encoder.size, encoder.num_hashes, encoder.secret)
    bloom.add_all(record_qgrams(encoder.values(record), encoder.ngram))
    return bloom.bits


def test_memo_stays_within_its_cap_and_bits_stay_exact():
    rng = random.Random(7)
    encoder = BloomRecordEncoder(["a", "b"], ngram=3)
    alphabet = string.ascii_lowercase + string.digits
    seen = set()
    for _ in range(120):
        record = {field: "".join(rng.choices(alphabet, k=24))
                  for field in ("a", "b")}
        seen |= record_qgrams(encoder.values(record), encoder.ngram)
        assert encoder.encode(record).bits == fresh_bits(encoder, record)
        assert len(encoder._masks) <= GRAM_MEMO_CAP
    assert len(seen) > GRAM_MEMO_CAP  # the cap was actually reached


def test_warm_encode_equals_cold_encode():
    encoder = BloomRecordEncoder(["first", "last"])
    record = {"first": "Zoë", "last": " Müller "}
    cold = encoder.encode(record).bits
    assert encoder.encode(record).bits == cold == fresh_bits(encoder, record)


def test_encoders_differing_in_one_parameter_share_no_masks():
    record = {"first": "ana", "last": "silva"}
    base = {"size": 512, "num_hashes": 4, "secret": "s"}
    variants = [dict(base), dict(base, secret="t"), dict(base, size=256),
                dict(base, num_hashes=3)]
    encoders = [BloomRecordEncoder(["first", "last"], **v) for v in variants]
    bits = [encoder.encode(record).bits for encoder in encoders]
    assert len(set(bits)) == len(bits)
    for encoder, got in zip(encoders, bits):
        assert got == fresh_bits(encoder, record)
    assert len({id(encoder._masks) for encoder in encoders}) == len(encoders)


def test_only_none_counts_as_missing():
    encoder = BloomRecordEncoder(["pin"])
    assert encoder.encode({"pin": 0}).bits == encoder.encode({"pin": "0"}).bits
    assert encoder.encode({"pin": 0}).bits != encoder.encode({"pin": ""}).bits
    assert encoder.encode({"pin": None}).bits == encoder.encode({}).bits
    assert encoder.identifies({"pin": 0})
    assert not encoder.identifies({"pin": None})
    assert not encoder.identifies({"pin": "  "})
    assert not encoder.identifies({})
