"""Exact audit trails for SUM queries (Chin–Özsoyoğlu), over record atoms.

Each answered SUM query over a protected numeric column corresponds to a
0/1 vector over the records in its query set.  A new query is *unsafe* when
adding its vector to the span of previously answered vectors makes some
unit vector (an individual record) expressible — at that point the snooper
can solve the linear system for one person's exact value.

Records that no query set has ever separated are interchangeable: every
answered vector is constant on them.  The auditor therefore partitions
the records into *atoms*, maximal sets of records no query set has cut,
and keeps one coordinate per atom.  Each new query set refines the
partition: an atom it cuts splits in two, and every basis row copies the
old atom's entry to the new atom, so it still describes the same record
vector.  ``m`` interval query sets leave at most ``2m + 1`` atoms, and
there are never more atoms than records.

Exactness: spreading an atom vector over the records (each record takes
its atom's entry) is linear and injective, and it maps the atom row space
onto the record row space.  Every vector in that space is constant on each
atom, so record ``i``'s unit vector lies in it iff ``i``'s atom is the
singleton ``{i}`` and that atom's unit vector lies in the atom row space.
The decisions are those of the audit over dense record vectors; the work
per check is linear in the query set plus the basis rank times the atom
count, not in ``n_records``.

The elimination is exact, with no floating-point rank tolerance: each
basis row is a rational row scaled to coprime integers, and rows combine
fraction-free (``a * row - b * other``, divided by the entries' gcd).
The basis is kept in reduced row echelon form up to row scaling: every
pivot column is zero in all other rows, so a unit vector lies in the row
space iff some basis row has that single nonzero entry.  A check inserts
the new vector in place and undoes the insert when the query is refused
or only probed (:meth:`SumAuditor.would_compromise`).  The refined
partition stays: a finer partition changes no decision.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from repro.errors import AuditRefusal, ReproError

#: What :attr:`SumAuditor.answered` keeps per answered query: the size of
#: its query set and the basis rank after it — a fixed size per query,
#: however many records the query set holds.
AuditEntry = namedtuple("AuditEntry", "records rank")


class SumAuditor:
    """Audit trail over a fixed population of ``n_records`` records."""

    def __init__(self, n_records):
        if n_records < 1:
            raise ReproError("auditor needs a positive record count")
        self.n_records = n_records
        self._atom_of = [0] * n_records  # record index -> atom
        self._atom_sizes = [n_records]   # atom -> how many records it holds
        self._basis = []   # integer RREF rows, one entry per atom
        self._pivots = []  # each basis row's leading column
        self.answered = []  # one AuditEntry per answered query

    @property
    def atom_count(self):
        """How many atoms the answered and probed query sets left."""
        return len(self._atom_sizes)

    def would_compromise(self, query_set):
        """True when answering ``query_set`` lets some record be isolated.

        ``query_set`` is an iterable of record indices in
        ``[0, n_records)``.
        """
        _records, vector = self._to_vector(query_set)
        replaced = self._insert(vector)
        exposed = self._exposed_atoms()
        self._undo(replaced)
        return exposed != []

    def check_and_record(self, query_set):
        """Record the query if safe; raise :class:`AuditRefusal` otherwise."""
        records, vector = self._to_vector(query_set)
        replaced = self._insert(vector)
        exposed = self._exposed_atoms()
        if exposed:
            self._undo(replaced)
            # The refusal names *how many* records would be isolated,
            # never which: refusal text travels into events and reports,
            # and a record index is exactly the identity the audit
            # exists to protect.
            raise AuditRefusal(
                f"answering would expose {len(exposed)} record(s) "
                f"(audit trail of {len(self.answered)} queries)"
            )
        self.answered.append(AuditEntry(records, len(self._basis)))

    def compromised_now(self):
        """Records already derivable from the answered queries (should be [])."""
        exposed = set(self._exposed_atoms())
        return [i for i, atom in enumerate(self._atom_of) if atom in exposed]

    def _to_vector(self, query_set):
        """``(record count, atom vector)`` of ``query_set``.

        Refines the partition first, so every atom lies wholly inside or
        wholly outside the query set.
        """
        indices = set(query_set)
        if not indices:
            raise ReproError("query set must be non-empty")
        bad = [i for i in indices if not 0 <= i < self.n_records]
        if bad:
            raise ReproError(
                f"{len(bad)} query set index(es) out of range "
                f"[0, {self.n_records})"
            )
        inside = {}
        atom_of = self._atom_of
        for i in indices:
            inside.setdefault(atom_of[i], []).append(i)
        columns = [
            self._split(atom, records)
            if len(records) < self._atom_sizes[atom] else atom
            for atom, records in inside.items()
        ]
        vector = [0] * len(self._atom_sizes)
        for atom in columns:
            vector[atom] = 1
        return len(indices), vector

    def _split(self, atom, records):
        """Move ``records`` (a proper subset of ``atom``) to a new atom."""
        new = len(self._atom_sizes)
        self._atom_sizes[atom] -= len(records)
        self._atom_sizes.append(len(records))
        for i in records:
            self._atom_of[i] = new
        for row in self._basis:
            row.append(row[atom])
        return new

    def _insert(self, vector):
        """Add ``vector`` to the basis in place, keeping it reduced.

        Returns ``None`` when ``vector`` is already in the span (nothing
        changed), else the ``(position, old row)`` pairs of the rows the
        back-elimination replaced, for :meth:`_undo`.
        """
        row = vector
        for existing, pivot in zip(self._basis, self._pivots):
            factor = row[pivot]
            if factor:
                row = _combine(existing[pivot], row, factor, existing)
        pivot = next((i for i, value in enumerate(row) if value), None)
        if pivot is None:
            return None  # linearly dependent on what we already answered
        # Back-eliminate the new pivot column from existing rows.
        replaced = []
        lead = row[pivot]
        for position, existing in enumerate(self._basis):
            factor = existing[pivot]
            if factor:
                replaced.append((position, existing))
                self._basis[position] = _combine(lead, existing, factor, row)
        self._basis.append(row)
        self._pivots.append(pivot)
        return replaced

    def _undo(self, replaced):
        """Take back the :meth:`_insert` that returned ``replaced``."""
        if replaced is None:
            return
        self._basis.pop()
        self._pivots.pop()
        for position, row in replaced:
            self._basis[position] = row

    def _exposed_atoms(self):
        """Singleton atoms whose unit vector is a basis row."""
        sizes = self._atom_sizes
        return [
            pivot for row, pivot in zip(self._basis, self._pivots)
            if sizes[pivot] == 1 and not any(row[pivot + 1:])
        ]


def _combine(scale, row, factor, other):
    """``scale * row - factor * other``, divided by its entries' gcd."""
    combined = [scale * a - factor * b for a, b in zip(row, other)]
    divisor = gcd(*combined)
    if divisor > 1:
        combined = [value // divisor for value in combined]
    return combined
