"""Reference SUM auditor over dense record vectors (differential oracle).

This is the Chin–Özsoyoğlu audit trail as ``repro.statdb.audit`` ran it
before it moved to record atoms, kept verbatim.  Each answered SUM query
is a dense 0/1 :class:`fractions.Fraction` vector over all ``n_records``
records; a new query is unsafe when adding its vector to the span of the
answered ones makes some unit vector (one record) expressible.  Every
check copies the whole reduced row echelon basis and eliminates a vector
of length ``n_records`` against every row, so its cost grows with the
history.  Exact and simple: the tests hold the production auditor to its
decisions.
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import AuditRefusal, ReproError


class SumAuditor:
    """Audit trail over a fixed population of ``n_records`` records."""

    def __init__(self, n_records):
        if n_records < 1:
            raise ReproError("auditor needs a positive record count")
        self.n_records = n_records
        self._basis = []  # reduced (echelon) basis of answered query vectors
        self.answered = []  # original query sets, for inspection

    def would_compromise(self, query_set):
        """True when answering ``query_set`` lets some record be isolated.

        ``query_set`` is an iterable of record indices in
        ``[0, n_records)``.
        """
        vector = self._to_vector(query_set)
        basis = [row[:] for row in self._basis]
        _insert(basis, vector)
        return self._compromised_indices(basis) != []

    def check_and_record(self, query_set):
        """Record the query if safe; raise :class:`AuditRefusal` otherwise."""
        vector = self._to_vector(query_set)
        candidate = [row[:] for row in self._basis]
        _insert(candidate, vector)
        exposed = self._compromised_indices(candidate)
        if exposed:
            # The refusal names *how many* records would be isolated,
            # never which: refusal text travels into events and reports,
            # and a record index is exactly the identity the audit
            # exists to protect.
            raise AuditRefusal(
                f"answering would expose {len(exposed)} record(s) "
                f"(audit trail of {len(self.answered)} queries)"
            )
        self._basis = candidate
        self.answered.append(frozenset(query_set))

    def compromised_now(self):
        """Records already derivable from the answered queries (should be [])."""
        return self._compromised_indices(self._basis)

    def _to_vector(self, query_set):
        indices = set(query_set)
        if not indices:
            raise ReproError("query set must be non-empty")
        bad = [i for i in indices if not 0 <= i < self.n_records]
        if bad:
            raise ReproError(
                f"{len(bad)} query set index(es) out of range "
                f"[0, {self.n_records})"
            )
        return [Fraction(1 if i in indices else 0) for i in range(self.n_records)]

    def _compromised_indices(self, basis):
        """Unit vectors representable in the span of ``basis``.

        After :func:`_insert` keeps the basis in reduced row echelon form,
        a unit vector is in the span iff some basis row *is* a unit vector.
        """
        exposed = []
        for row in basis:
            support = [i for i, value in enumerate(row) if value != 0]
            if len(support) == 1:
                exposed.append(support[0])
        return exposed


def _insert(basis, vector):
    """Insert ``vector`` into an RREF ``basis`` (in place).

    Maintains reduced row echelon form: each row has a leading 1 whose
    column is zero in every other row.
    """
    row = vector[:]
    for existing in basis:
        pivot = _pivot(existing)
        if row[pivot] != 0:
            factor = row[pivot]
            for i in range(len(row)):
                row[i] -= factor * existing[i]
    pivot = _first_nonzero(row)
    if pivot is None:
        return  # linearly dependent on what we already answered
    lead = row[pivot]
    row = [value / lead for value in row]
    # Back-eliminate the new pivot column from existing rows.
    for existing in basis:
        factor = existing[pivot]
        if factor != 0:
            for i in range(len(existing)):
                existing[i] -= factor * row[i]
    basis.append(row)
    basis.sort(key=_pivot)


def _pivot(row):
    index = _first_nonzero(row)
    if index is None:
        raise ReproError("zero row in audit basis")
    return index


def _first_nonzero(row):
    for i, value in enumerate(row):
        if value != 0:
            return i
    return None
