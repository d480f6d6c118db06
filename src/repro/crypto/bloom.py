"""Bloom filters.

Used by the private record-linkage encodings (Schnell-style): each party
encodes a record's q-grams into a Bloom filter under shared keyed hash
functions; filters can then be compared by Dice similarity without
exchanging plaintext identifiers.
"""

from __future__ import annotations

import math

from repro.errors import CryptoError
from repro.crypto.keyed_hash import keyed_hash_int


def dice(overlap, count_a, count_b):
    """Dice coefficient of two bit sets from their popcounts (∈ [0, 1]).

    ``overlap`` is the popcount of their intersection; two empty sets are
    identical (1.0).
    """
    if count_a + count_b == 0:
        return 1.0
    return 2.0 * overlap / (count_a + count_b)


class BloomFilter:
    """A fixed-size Bloom filter with ``num_hashes`` keyed hash functions.

    All parties that intend to compare filters must share ``size``,
    ``num_hashes``, and ``secret`` (the HMAC key) — that shared secret is
    what keeps a curious mediator from mounting a dictionary attack.
    """

    def __init__(self, size=256, num_hashes=4, secret="private-iye"):
        if size < 8:
            raise CryptoError("Bloom filter size must be at least 8 bits")
        if num_hashes < 1:
            raise CryptoError("need at least one hash function")
        self.size = size
        self.num_hashes = num_hashes
        self.secret = secret
        self.bits = 0  # an int used as a bit set

    def _positions(self, item):
        for i in range(self.num_hashes):
            yield keyed_hash_int(f"{self.secret}:{i}", item) % self.size

    def mask(self, item):
        """The bits ``item`` sets, as an int (independent of ``bits``)."""
        mask = 0
        for position in self._positions(item):
            mask |= 1 << position
        return mask

    def add(self, item):
        """Insert ``item``."""
        self.bits |= self.mask(item)

    def add_all(self, items):
        """Insert every item of ``items``."""
        for item in items:
            self.add(item)

    def __contains__(self, item):
        return all(self.bits >> p & 1 for p in self._positions(item))

    def count_bits(self):
        """Number of set bits."""
        return self.bits.bit_count()

    def dice_similarity(self, other):
        """Dice coefficient of two filters' bit sets (∈ [0, 1])."""
        self._check_compatible(other)
        return dice((self.bits & other.bits).bit_count(),
                    self.count_bits(), other.count_bits())

    def jaccard_similarity(self, other):
        """Jaccard coefficient of two filters' bit sets (∈ [0, 1])."""
        self._check_compatible(other)
        union = (self.bits | other.bits).bit_count()
        if union == 0:
            return 1.0
        return (self.bits & other.bits).bit_count() / union

    def estimated_count(self):
        """Estimate of how many distinct items were inserted."""
        zero_fraction = 1 - self.count_bits() / self.size
        if zero_fraction <= 0:
            return float("inf")
        return -self.size / self.num_hashes * math.log(zero_fraction)

    def false_positive_rate(self, inserted):
        """Theoretical false-positive rate after ``inserted`` items."""
        return (1 - math.exp(-self.num_hashes * inserted / self.size)) ** self.num_hashes

    def _check_compatible(self, other):
        if not isinstance(other, BloomFilter):
            raise CryptoError("can only compare with another BloomFilter")
        if (self.size, self.num_hashes, self.secret) != (
            other.size, other.num_hashes, other.secret,
        ):
            raise CryptoError("Bloom filters have incompatible parameters")

    def __repr__(self):
        return (
            f"BloomFilter(size={self.size}, hashes={self.num_hashes}, "
            f"set={self.count_bits()})"
        )
