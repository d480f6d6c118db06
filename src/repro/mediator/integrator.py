"""The Result Integrator (paper §5).

Collects per-source tagged XML results, renames local attributes back to
mediated names, merges the row sets, and removes cross-source duplicates —
"such object matchings have to be done without revealing the origins of the
sources or the real world origins of the entities", so deduplication runs
on Bloom encodings of the configured linkage attributes rather than
plaintext identifiers.
"""

from __future__ import annotations

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
