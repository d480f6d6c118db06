"""The Result Integrator (paper §5).

Collects per-source tagged XML results, renames local attributes back to
mediated names, merges the row sets, and removes cross-source duplicates —
"such object matchings have to be done without revealing the origins of the
sources or the real world origins of the entities", so deduplication runs
on Bloom encodings of the configured linkage attributes rather than
plaintext identifiers.

Dedup walks the rows in source order and merges each row into the first
kept row whose filter reaches the Dice threshold and which merges no row
of the same source yet.  A row with no identifying text is kept as its
own row and never merged: empty fields encode only padding grams, which
would make every two nameless rows look identical.  The integrator keeps
one encoder per set of linkage fields present for its lifetime, so each
encoder's q-gram memo stays warm across poses.
"""

from __future__ import annotations

from repro.crypto.bloom import dice
from repro.errors import IntegrationError
from repro.linkage.private import BloomRecordEncoder
from repro.source.results import untag_results
from repro.telemetry import redact


class IntegratedResult:
    """What the mediation engine hands back to the requester."""

    def __init__(self, rows, per_source_loss, aggregated_loss, notices,
                 refused_sources, duplicates_removed):
        self.rows = list(rows)
        self.per_source_loss = dict(per_source_loss)
        self.aggregated_loss = aggregated_loss
        self.notices = list(notices)
        self.refused_sources = dict(refused_sources)
        self.duplicates_removed = duplicates_removed

    def __len__(self):
        return len(self.rows)

    def __repr__(self):
        return (
            f"IntegratedResult(rows={len(self.rows)}, "
            f"loss={self.aggregated_loss:.3f}, "
            f"sources={sorted(self.per_source_loss)})"
        )


class ResultIntegrator:
    """Merges tagged source documents into one mediated row set."""

    def __init__(self, schema, linkage_attributes=(), dedup_threshold=0.85,
                 bloom_secret="integration"):
        self.schema = schema
        self.linkage_attributes = list(linkage_attributes)
        self.dedup_threshold = dedup_threshold
        self.bloom_secret = bloom_secret
        self._encoders = {}  # linkage fields present -> encoder

    def integrate(self, responses, plan, is_aggregate):
        """Merge ``responses`` (source → SourceResponse).

        Returns ``(rows, per_source_loss, duplicates_removed)``; rows carry
        a ``_source`` key.  Aggregate results are never deduplicated — each
        source's aggregate is a distinct fact about that source.
        """
        rows = []
        per_source_loss = {}
        for source in sorted(responses):
            response = responses[source]
            doc_source, doc_rows, metadata = untag_results(response.document)
            if doc_source != source:
                # A forged source tag is attacker-controlled text; the
                # error carries digests so operators can correlate the
                # mismatch without the message echoing the payload.
                raise IntegrationError(
                    f"document claims source {redact.digest(doc_source)}, "
                    f"expected {redact.digest(source)}"
                )
            per_source_loss[source] = metadata["loss"]
            rename = self._rename_map(plan, source)
            for row in doc_rows:
                mediated_row = {
                    rename.get(column, column): value
                    for column, value in row.items()
                }
                mediated_row["_source"] = source
                rows.append(mediated_row)

        duplicates_removed = 0
        if not is_aggregate and self.linkage_attributes:
            rows, duplicates_removed = self._private_dedup(rows)
        return rows, per_source_loss, duplicates_removed

    def _rename_map(self, plan, source):
        rename = {}
        for _path_repr, mediated in plan.mediated_names.items():
            attribute = self.schema.attribute(mediated)
            local = attribute.local_names.get(source)
            if local is not None:
                rename[local] = mediated
        return rename

    def _private_dedup(self, rows):
        """Cross-source Bloom dedup on the linkage attributes."""
        fields = tuple(
            f for f in self.linkage_attributes
            if any(f in row for row in rows)
        )
        if not fields:
            return rows, 0
        encoder = self._encoder(fields)
        threshold = self.dedup_threshold
        kept = []
        candidates = []  # (bits, popcount, sources merged, kept row)
        removed = 0
        for row in rows:
            if not encoder.identifies(row):
                kept.append(dict(row))
                continue
            bits = encoder.encode(row).bits
            count = bits.bit_count()
            source = row["_source"]
            for kept_bits, kept_count, sources, merged in candidates:
                if source not in sources and dice(
                    (kept_bits & bits).bit_count(), kept_count, count
                ) >= threshold:
                    break
            else:
                merged = dict(row)
                kept.append(merged)
                candidates.append((bits, count, {source}, merged))
                continue
            removed += 1
            sources.add(source)
            for key, value in row.items():
                if key == "_source":
                    merged["_source"] = f"{merged['_source']}+{value}"
                elif merged.get(key) in (None, "") and value not in (None, ""):
                    merged[key] = value
        return kept, removed

    def _encoder(self, fields):
        encoder = self._encoders.get(fields)
        if encoder is None:
            encoder = self._encoders[fields] = BloomRecordEncoder(
                fields, size=512, num_hashes=4, secret=self.bloom_secret
            )
        return encoder
