"""End-to-end tests for the PrivateIye system (Figure 2 complete)."""

import pytest

from repro import (
    AuditRefusal,
    IntegrationError,
    PrivacyViolation,
    PrivateIye,
    ReproError,
)
from repro.relational import Table

POLICIES = """
VIEW hmo1_private {
    PRIVATE //patient/ssn;
    PRIVATE //patient/hba1c FORM aggregate;
}
VIEW lab1_private {
    PRIVATE //patient/ssn;
    PRIVATE //patient/hba1c FORM aggregate;
}

POLICY HMO1 DEFAULT deny {
    DENY //patient/ssn FOR *;
    ALLOW //patient/hba1c FOR public-health-research FORM aggregate MAXLOSS 0.6;
    ALLOW //patient/hmo FOR research;
    ALLOW //patient/age FOR research;
    ALLOW //patient/first FOR research;
    ALLOW //patient/last FOR research;
}

POLICY LAB1 DEFAULT deny {
    DENY //patient/ssn FOR *;
    ALLOW //patient/hba1c FOR public-health-research FORM aggregate MAXLOSS 0.6;
    ALLOW //patient/age FOR research;
    ALLOW //patient/first FOR research;
    ALLOW //patient/last FOR research;
}
"""


def hmo_table():
    rows = [
        {"ssn": f"111-{i:04d}", "first": f"fn{i}", "last": f"ln{i}",
         "age": 30 + (i % 40), "hba1c": 65.0 + (i % 20), "hmo": "HMO1"}
        for i in range(60)
    ]
    # one patient shared with the lab (same identity)
    rows[0]["first"], rows[0]["last"] = "alice", "smith"
    return Table.from_dicts("patients", rows)


def lab_table():
    rows = [
        {"ssn": f"222-{i:04d}", "first": f"lf{i}", "last": f"ll{i}",
         "age": 25 + (i % 45), "hba1c": 70.0 + (i % 15)}
        for i in range(40)
    ]
    rows[0]["first"], rows[0]["last"] = "alice", "smith"
    return Table.from_dicts("patients", rows)


def build_system(linkage=("first", "last")):
    system = PrivateIye(linkage_attributes=linkage)
    system.load_policies(
        POLICIES,
        view_source={"hmo1_private": "HMO1", "lab1_private": "LAB1"},
    )
    system.add_relational_source("HMO1", hmo_table())
    system.add_relational_source("LAB1", lab_table())
    return system


class TestSchemaAndVocabulary:
    def test_vocabulary_excludes_suppressed(self):
        system = build_system()
        vocabulary = system.vocabulary()
        assert "ssn" not in vocabulary
        assert "hba1c" in vocabulary
        assert "age" in vocabulary

    def test_shared_attributes_merged(self):
        system = build_system()
        attribute = system.mediated_schema().attribute("hba1c")
        assert set(attribute.local_names) == {"HMO1", "LAB1"}


class TestAggregateIntegration:
    def test_cross_source_aggregate(self):
        system = build_system()
        result = system.query(
            "SELECT AVG(//patient/hba1c) AS mean "
            "PURPOSE outbreak-surveillance MAXLOSS 0.6",
            requester="epi-1",
        )
        assert len(result.rows) == 2  # one aggregate row per source
        sources = {row["_source"] for row in result.rows}
        assert sources == {"HMO1", "LAB1"}
        assert result.aggregated_loss <= 0.6

    def test_wrong_purpose_refused_everywhere(self):
        system = build_system()
        with pytest.raises(PrivacyViolation, match="every relevant source"):
            system.query(
                "SELECT AVG(//patient/hba1c) PURPOSE marketing",
                requester="mkt-1",
            )

    def test_partial_refusal_reported(self):
        # age is allowed at HMO1 and LAB1 for research; hmo only at HMO1.
        system = build_system()
        result = system.query(
            "SELECT COUNT(*) WHERE //patient/hmo = 'HMO1' PURPOSE research",
            requester="r1",
        )
        assert set(result.per_source_loss) == {"HMO1"}

    def test_sequence_guard_blocks_probing(self):
        system = build_system()
        for i in range(4):
            system.query(
                f"SELECT AVG(//patient/hba1c) WHERE //patient/age > {30 + i} "
                "PURPOSE outbreak-surveillance MAXLOSS 0.6",
                requester="snoop",
            )
        with pytest.raises(AuditRefusal):
            system.query(
                "SELECT AVG(//patient/hba1c) WHERE //patient/age > 60 "
                "PURPOSE outbreak-surveillance MAXLOSS 0.6",
                requester="snoop",
            )

    def test_guard_is_per_requester(self):
        system = build_system()
        for i in range(4):
            system.query(
                f"SELECT AVG(//patient/hba1c) WHERE //patient/age > {40 + i} "
                "PURPOSE outbreak-surveillance MAXLOSS 0.6",
                requester=f"requester-{i}",
            )


class TestRecordLevelIntegration:
    def test_record_level_query_integrates_and_dedups(self):
        system = build_system()
        result = system.query(
            "SELECT //patient/first, //patient/last, //patient/age "
            "PURPOSE research",
            requester="r1",
        )
        assert result.duplicates_removed >= 1  # alice smith appears in both
        merged = [r for r in result.rows if "+" in r["_source"]]
        assert merged  # the shared patient is merged across sources

    def test_dedup_never_merges_two_rows_of_one_source(self):
        # LAB1 holds two patients named alice smith, HMO1 one.  HMO1's row
        # absorbs one of them; the merged row is labelled "HMO1+LAB1",
        # and the second LAB1 row must still stay a person of its own.
        system = PrivateIye(linkage_attributes=("first", "last"))
        system.load_policies(
            POLICIES,
            view_source={"hmo1_private": "HMO1", "lab1_private": "LAB1"},
        )
        system.add_relational_source("HMO1", hmo_table())
        lab = lab_table()
        ssn, _first, _last, age, hba1c = lab.rows[1]
        lab.rows[1] = (ssn, "alice", "smith", age, hba1c)
        system.add_relational_source("LAB1", lab)
        result = system.query(
            "SELECT //patient/first, //patient/last "
            "WHERE //patient/first = 'alice' PURPOSE research",
            requester="r1",
        )
        assert len(result.rows) == 2
        assert result.duplicates_removed == 1
        assert sorted(row["_source"] for row in result.rows) == [
            "HMO1+LAB1", "LAB1"]

    def test_rows_without_identifiers_never_merge(self):
        # HMO1's age-30 patient and LAB1's age-25 patient have no name on
        # file.  Two nameless rows must not read as one person.
        hmo = hmo_table()
        ssn, _first, _last, age, hba1c, hmo_name = hmo.rows[0]
        hmo.rows[0] = (ssn, None, None, age, hba1c, hmo_name)
        lab = lab_table()
        ssn, _first, _last, age, hba1c = lab.rows[0]
        lab.rows[0] = (ssn, None, None, age, hba1c)
        system = PrivateIye(linkage_attributes=("first", "last"))
        system.load_policies(
            POLICIES,
            view_source={"hmo1_private": "HMO1", "lab1_private": "LAB1"},
        )
        system.add_relational_source("HMO1", hmo)
        system.add_relational_source("LAB1", lab)
        result = system.query(
            "SELECT //patient/first, //patient/last, //patient/age "
            "PURPOSE research",
            requester="r1",
        )
        assert len(result.rows) == 100
        assert result.duplicates_removed == 0
        nameless = sorted(
            (row["age"], row["_source"]) for row in result.rows
            if row.get("first") is None and row.get("last") is None
        )
        assert nameless == [(25, "LAB1"), (30, "HMO1")]

    def test_no_dedup_without_linkage_attributes(self):
        system = build_system(linkage=())
        result = system.query(
            "SELECT //patient/first, //patient/last PURPOSE research",
            requester="r1",
        )
        assert result.duplicates_removed == 0

    def test_ssn_unreachable_via_mediated_schema(self):
        system = build_system()
        with pytest.raises(IntegrationError):
            system.query("SELECT //patient/ssn PURPOSE research",
                         requester="r1")


class TestSystemBehaviour:
    def test_warehouse_caches_repeat_queries(self):
        system = build_system()
        text = ("SELECT AVG(//patient/hba1c) PURPOSE outbreak-surveillance "
                "MAXLOSS 0.6")
        system.query(text, requester="r1")
        answered_before = sum(
            s.queries_answered for s in system.engine.sources.values()
        )
        system.query(text, requester="r1")  # served from warehouse
        answered_after = sum(
            s.queries_answered for s in system.engine.sources.values()
        )
        assert answered_after == answered_before

    def test_history_recorded(self):
        system = build_system()
        system.query(
            "SELECT COUNT(*) PURPOSE research", requester="historian"
        )
        entries = system.history("historian")
        assert len(entries) == 1
        assert entries[0].is_aggregate

    def test_default_purpose_from_session(self):
        system = build_system()
        system.session("r9", default_purpose="research")
        result = system.query("SELECT COUNT(*)", requester="r9")
        assert len(result.rows) >= 1

    def test_requester_maxloss_enforced(self):
        system = build_system()
        with pytest.raises((PrivacyViolation, ReproError)):
            system.query(
                "SELECT //patient/first, //patient/last "
                "PURPOSE research MAXLOSS 0.01",
                requester="r1",
            )

    def test_source_registration_validation(self):
        system = build_system()
        with pytest.raises(ReproError):
            system.add_relational_source("X", "not a table")
        with pytest.raises(ReproError):
            system.add_source("not a source")
        with pytest.raises(IntegrationError):
            system.source("ghost")

    def test_duplicate_source_rejected(self):
        system = build_system()
        with pytest.raises(IntegrationError):
            system.add_relational_source("HMO1", hmo_table())
