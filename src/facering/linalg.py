"""Exact incremental row reduction over a coefficient field.

:class:`RowSpan` keeps an echelonized spanning set and, for every echelon
row, the coefficients that produced it from the inserted vectors.  Membership
tests therefore come with the unique representation of the queried vector on
the inserted ones, read off without re-solving.  Pivots are the first nonzero
column; arithmetic is exact, there are no thresholds.

A vector is a sparse mapping ``{column: scalar}``; the scalars are brought to
the canonical form of :func:`facering.coeff.normal` on the way in, and zeros
are dropped.  Every row and every coefficient on the inserted vectors is a
canonical scalar too, so the 0/1 facet vectors of the Cohen-Macaulay test
eliminate in integer arithmetic over Q, and Q and GF(p) share one
elimination loop.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from .coeff import FieldSpec, Raw, inverse, normal

SparseRow = dict[int, Raw]


def _eliminate(target: SparseRow, c: Raw, row: SparseRow, p: int | None) -> None:
    """``target -= c * row`` in place, dropping entries that become zero."""
    for j, x in row.items():
        y = normal(target.get(j, 0) - c * x, p)
        if y:
            target[j] = y
        else:
            # c * x is nonzero, so a zero result means j was present
            del target[j]


class RowSpan:
    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        # each row: (pivot column, sparse row with leading 1, {tag: coefficient})
        self.rows: list[tuple[int, SparseRow, dict[Hashable, Raw]]] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _sparse(self, vec: Mapping[int, Raw]) -> SparseRow:
        if vec and (min(vec) < 0 or max(vec) >= self.width):
            raise ValueError("vector width mismatch")
        p = self.field.p
        return {j: y for j, x in vec.items() if (y := normal(x, p))}

    def _reduce(self, vec: SparseRow) -> dict[Hashable, Raw]:
        """Eliminate existing pivots from ``vec`` in place.

        Returns the combination of inserted vectors removed, so that
        ``original = sum(combo[t] * inserted[t]) + residual``.  Entries that
        cancel to zero stay in the combination, keeping first-use order.
        """
        p = self.field.p
        combo: dict[Hashable, Raw] = {}
        for pivot, row, rcombo in self.rows:
            c = vec.get(pivot)
            if c is None:
                continue
            _eliminate(vec, c, row, p)
            for tag, x in rcombo.items():
                combo[tag] = normal(combo.get(tag, 0) + c * x, p)
        return combo

    def insert(self, tag: Hashable, vec: Mapping[int, Raw]):
        """Add a tagged vector to the span.

        Returns ``None`` if the vector was independent (the span grew), or
        the representation ``{tag: coeff}`` of the vector on the previously
        inserted ones if it was already in the span.
        """
        residual = self._sparse(vec)
        combo = self._reduce(residual)
        if not residual:
            return {t: c for t, c in combo.items() if c}
        p = self.field.p
        pivot = min(residual)
        inv = inverse(residual[pivot], p)
        row = {j: normal(inv * x, p) for j, x in residual.items()}
        rcombo = {t: normal(-(inv * c), p) for t, c in combo.items() if c}
        rcombo[tag] = normal(rcombo.get(tag, 0) + inv, p)
        self.rows.append((pivot, row, {t: c for t, c in rcombo.items() if c}))
        return None

    def represent(self, vec: Mapping[int, Raw]):
        """Representation of ``vec`` on the inserted vectors, or None if outside."""
        residual = self._sparse(vec)
        combo = self._reduce(residual)
        if residual:
            return None
        return {t: c for t, c in combo.items() if c}

    def contains(self, vec: Mapping[int, Raw]) -> bool:
        residual = self._sparse(vec)
        self._reduce(residual)
        return not residual


def rref(rows: Sequence[Mapping[int, Raw]], field: FieldSpec,
         width: int) -> list[list[Raw]]:
    """Canonical reduced row echelon form (rows sorted by pivot column)."""
    span = RowSpan(field, width)
    for i, r in enumerate(rows):
        span.insert(i, r)
    echelon = sorted(((pivot, dict(row)) for pivot, row, _ in span.rows),
                     key=lambda pr: pr[0])
    # back-substitute so that every pivot column is zero elsewhere
    for i in range(len(echelon) - 1, -1, -1):
        pivot, row = echelon[i]
        for k in range(i):
            target = echelon[k][1]
            c = target.get(pivot)
            if c is not None:
                _eliminate(target, c, row, field.p)
    return [[row.get(j, 0) for j in range(width)] for _, row in echelon]
