"""Reference private dedup of the result integrator (differential oracle).

This is the cross-source Bloom dedup as ``repro.mediator.integrator`` ran
it before encoders memoized q-gram masks, kept verbatim: every row is
encoded afresh (one HMAC per q-gram per hash function) by a new encoder,
and every candidate pair is compared with ``dice_similarity``, which
re-checks parameters and re-counts both filters.  The Bloom filter the
encoder used is copied alongside, so the oracle shares no hashing or
similarity code with the production path.

It keeps the old handling of missing identifiers on purpose: a falsy
value encodes as empty, and rows whose identifiers are all empty encode
identically and merge.  Differential inputs therefore give every row at
least one non-blank, truthy identifier.
"""

from __future__ import annotations

from repro.crypto.keyed_hash import keyed_hash_int
from repro.linkage.similarity import record_qgrams


class BloomFilter:
    """The Bloom filter the encoder built (hashing and Dice only)."""

    def __init__(self, size=256, num_hashes=4, secret="private-iye"):
        self.size = size
        self.num_hashes = num_hashes
        self.secret = secret
        self.bits = 0  # an int used as a bit set

    def _positions(self, item):
        for i in range(self.num_hashes):
            yield keyed_hash_int(f"{self.secret}:{i}", item) % self.size

    def add(self, item):
        """Insert ``item``."""
        for position in self._positions(item):
            self.bits |= 1 << position

    def add_all(self, items):
        """Insert every item of ``items``."""
        for item in items:
            self.add(item)

    def count_bits(self):
        """Number of set bits."""
        return self.bits.bit_count()

    def dice_similarity(self, other):
        """Dice coefficient of two filters' bit sets (∈ [0, 1])."""
        a, b = self.count_bits(), other.count_bits()
        if a + b == 0:
            return 1.0
        overlap = (self.bits & other.bits).bit_count()
        return 2.0 * overlap / (a + b)


class BloomRecordEncoder:
    """Encodes records into comparable Bloom filters."""

    def __init__(self, fields, size=512, num_hashes=4, secret="private-iye", ngram=2):
        self.fields = list(fields)
        self.size = size
        self.num_hashes = num_hashes
        self.secret = secret
        self.ngram = ngram

    def encode(self, record):
        """Bloom-encode the identifying fields of ``record`` (a mapping)."""
        values = [record.get(field, "") or "" for field in self.fields]
        bloom = BloomFilter(self.size, self.num_hashes, self.secret)
        bloom.add_all(record_qgrams(values, self.ngram))
        return bloom


class ResultIntegrator:
    """Only the dedup half of the integrator, with its configuration."""

    def __init__(self, linkage_attributes=(), dedup_threshold=0.85,
                 bloom_secret="integration"):
        self.linkage_attributes = list(linkage_attributes)
        self.dedup_threshold = dedup_threshold
        self.bloom_secret = bloom_secret

    def _private_dedup(self, rows):
        """Cross-source Bloom dedup on the linkage attributes."""
        fields = [
            f for f in self.linkage_attributes
            if any(f in row for row in rows)
        ]
        if not fields:
            return rows, 0
        encoder = BloomRecordEncoder(
            fields, size=512, num_hashes=4, secret=self.bloom_secret
        )
        kept = []
        kept_blooms = []
        kept_sources = []  # the sources each kept row already merges
        removed = 0
        for row in rows:
            bloom = encoder.encode(row)
            duplicate_of = None
            for index, existing in enumerate(kept_blooms):
                if (
                    row["_source"] not in kept_sources[index]
                    and existing.dice_similarity(bloom) >= self.dedup_threshold
                ):
                    duplicate_of = index
                    break
            if duplicate_of is None:
                kept.append(dict(row))
                kept_blooms.append(bloom)
                kept_sources.append({row["_source"]})
            else:
                removed += 1
                kept_sources[duplicate_of].add(row["_source"])
                merged = kept[duplicate_of]
                for key, value in row.items():
                    if key == "_source":
                        merged["_source"] = f"{merged['_source']}+{value}"
                    elif merged.get(key) in (None, "") and value not in (None, ""):
                        merged[key] = value
        return kept, removed
