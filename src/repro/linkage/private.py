"""Privacy-preserving record linkage.

Two flavours, matching the toolbox the paper's result integrator needs:

* **Bloom linkage** (approximate): each source encodes a record's
  identifying fields into a Bloom filter of field-tagged q-grams under a
  shared secret; the integrator compares filters by Dice similarity.  The
  integrator never sees plaintext identifiers, and tolerates typos.
  A q-gram's bits depend only on the encoder's parameters, so each
  encoder memoizes them (at most :data:`GRAM_MEMO_CAP` grams): a warm
  ``encode`` ORs cached masks instead of computing one HMAC per gram per
  hash function.  The memo holds plaintext grams; it lives and dies with
  its encoder and is never exported.
* **PSI linkage** (exact): the sources run private set intersection over
  keyed record digests, so only records present in both sides are revealed
  — to the sources, not the integrator.
"""

from __future__ import annotations

import random

from repro.errors import ReproError
from repro.crypto.bloom import BloomFilter
from repro.crypto.keyed_hash import keyed_hash
from repro.crypto.psi import private_set_intersection
from repro.linkage.similarity import record_qgrams

#: Most q-gram masks one encoder keeps; a full memo is emptied and refills.
#: Person names over two or three fields use a few hundred distinct grams.
GRAM_MEMO_CAP = 4096


class BloomRecordEncoder:
    """Encodes records into comparable Bloom filters.

    All sources that intend to link must construct encoders with identical
    parameters (``fields``, ``size``, ``num_hashes``, ``secret``).
    """

    def __init__(self, fields, size=512, num_hashes=4, secret="private-iye", ngram=2):
        if not fields:
            raise ReproError("encoder needs at least one identifying field")
        self.fields = list(fields)
        self.size = size
        self.num_hashes = num_hashes
        self.secret = secret
        self.ngram = ngram
        self._hasher = BloomFilter(size, num_hashes, secret)
        self._masks = {}  # field-tagged q-gram -> its bits

    def values(self, record):
        """The identifying values of ``record``; a missing one (absent or
        ``None``) reads as ``""``."""
        return ["" if record.get(field) is None else record[field]
                for field in self.fields]

    def identifies(self, record):
        """Whether any identifying field of ``record`` holds non-blank text."""
        return any(str(value).strip() for value in self.values(record))

    def encode(self, record):
        """Bloom-encode the identifying fields of ``record`` (a mapping)."""
        masks = self._masks
        bits = 0
        for gram in record_qgrams(self.values(record), self.ngram):
            mask = masks.get(gram)
            if mask is None:
                if len(masks) >= GRAM_MEMO_CAP:
                    masks.clear()
                mask = masks[gram] = self._hasher.mask(gram)
            bits |= mask
        bloom = BloomFilter(self.size, self.num_hashes, self.secret)
        bloom.bits = bits
        return bloom

    def encode_all(self, records):
        """Encode every record, returning (record, filter) pairs."""
        return [(record, self.encode(record)) for record in records]


def bloom_link(records_a, records_b, encoder, threshold=0.8):
    """Link two record collections via Bloom similarity.

    Returns a list of ``(record_a, record_b, similarity)`` for every
    cross pair whose Dice similarity reaches ``threshold``.  Complexity is
    O(|A|·|B|) filter comparisons — integer AND/popcount, so cheap; callers
    with large inputs should block first and call per block.
    """
    if not 0.0 < threshold <= 1.0:
        raise ReproError("threshold must be in (0, 1]")
    encoded_a = encoder.encode_all(records_a)
    encoded_b = encoder.encode_all(records_b)
    links = []
    for record_a, bloom_a in encoded_a:
        for record_b, bloom_b in encoded_b:
            similarity = bloom_a.dice_similarity(bloom_b)
            if similarity >= threshold:
                links.append((record_a, record_b, similarity))
    return links


def psi_link_exact(records_a, records_b, fields, secret="private-iye", group=None, rng=None):
    """Exact private linkage: PSI over keyed digests of identifying fields.

    Returns the list of digests in the intersection plus, for each side,
    the records whose digest matched (the linkage outcome each *source*
    learns).  Normalisation (strip + casefold) absorbs formatting noise but
    not typos — that is Bloom linkage's job.
    """
    digests_a = {_record_digest(r, fields, secret): r for r in records_a}
    digests_b = {_record_digest(r, fields, secret): r for r in records_b}
    shared, _transcript = private_set_intersection(
        sorted(digests_a), sorted(digests_b), group=group, rng=rng or random.Random()
    )
    matched_a = [digests_a[d] for d in shared]
    matched_b = [digests_b[d] for d in shared]
    return shared, matched_a, matched_b


def _record_digest(record, fields, secret):
    normalized = "|".join(
        str(record.get(field, "") or "").strip().casefold() for field in fields
    )
    return keyed_hash(secret, normalized).hex()
