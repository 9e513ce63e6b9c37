"""Exact row reduction over a coefficient field, on one elimination core.

:class:`Echelon` is the combination-free core of :func:`row_rank`,
:func:`rref` and the Cohen-Macaulay test.  :class:`RowSpan` also keeps the
combination of inserted vectors behind every row, giving the unique
representation that the cell basis and a Cohen-Macaulay witness need.  Both
run on :func:`_eliminate`, for rows and combinations alike.  Pivots are the
first nonzero column; arithmetic is exact, there are no thresholds.

A vector is a sparse mapping ``{column: scalar}``; the scalars are brought to
the canonical form of :func:`facering.coeff.normal` on the way in, and zeros
are dropped.  Every row and every coefficient on the inserted vectors is a
canonical scalar too, so the 0/1 facet vectors of the Cohen-Macaulay test
eliminate in integer arithmetic over Q, and Q and GF(p) share one
elimination routine.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from .coeff import FieldSpec, Raw, inverse, normal

SparseRow = dict[int, Raw]


def _eliminate(target: SparseRow, c: Raw, row: SparseRow, p: int | None) -> None:
    """``target -= c * row`` in place, dropping entries that become zero
    (c * x is nonzero, so a zero result means column j was present)."""
    get = target.get
    if p is not None:
        for j, x in row.items():
            y = (get(j, 0) - c * x) % p
            if y:
                target[j] = y
            else:
                del target[j]
        return
    for j, x in row.items():
        y = get(j, 0) - c * x
        if type(y) is not int:
            y = normal(y, None)
        if y:
            target[j] = y
        else:
            del target[j]


def _sparse(vec: Mapping[int, Raw], p: int | None, width: int) -> SparseRow:
    """The canonical nonzero entries of ``vec``, after a width check."""
    if vec and (min(vec) < 0 or max(vec) >= width):
        raise ValueError("vector width mismatch")
    return {j: y for j, x in vec.items() if (y := normal(x, p))}


def _scaled(vec: SparseRow, c: Raw, p: int | None) -> SparseRow:
    """``c * vec``, for a nonzero ``c``."""
    return {j: normal(c * x, p) for j, x in vec.items()}


class Echelon:
    """One row with a leading 1 for each vector of ``rows`` independent of
    the earlier ones, then for each appended residual, in that order; no
    combinations are tracked."""

    def __init__(self, field: FieldSpec, width: int,
                 rows: Iterable[Mapping[int, Raw]] = ()):
        self.field = field
        self.width = width
        # each row: (pivot column, sparse row with leading 1)
        self.rows: list[tuple[int, SparseRow]] = []
        for vec in rows:
            if residual := self.reduce(vec):
                self.append(residual)

    def reduce(self, vec: Mapping[int, Raw]) -> SparseRow:
        """The residual of ``vec`` after eliminating every pivot; it is empty
        iff ``vec`` lies in the span."""
        p = self.field.p
        residual = _sparse(vec, p, self.width)
        for pivot, row in self.rows:
            c = residual.get(pivot)
            if c is not None:
                _eliminate(residual, c, row, p)
        return residual

    def append(self, residual: SparseRow) -> None:
        """Add a nonzero residual returned by :meth:`reduce` as a new row."""
        pivot = min(residual)
        p = self.field.p
        self.rows.append((pivot, _scaled(residual, inverse(residual[pivot], p), p)))

    def contains(self, vec: Mapping[int, Raw]) -> bool:
        return not self.reduce(vec)


class RowSpan:
    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        # each row: (pivot column, sparse row with leading 1, {tag: coefficient})
        self.rows: list[tuple[int, SparseRow, dict[Hashable, Raw]]] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: SparseRow) -> dict[Hashable, Raw]:
        """Eliminate existing pivots from ``vec`` in place.

        Returns the combination of inserted vectors removed, so that
        ``original = sum(combo[t] * inserted[t]) + residual``; tags whose
        coefficients cancel are dropped.
        """
        p = self.field.p
        combo: dict[Hashable, Raw] = {}
        for pivot, row, rcombo in self.rows:
            c = vec.get(pivot)
            if c is None:
                continue
            _eliminate(vec, c, row, p)
            _eliminate(combo, -c, rcombo, p)
        return combo

    def insert(self, tag: Hashable, vec: Mapping[int, Raw]):
        """Add a tagged vector to the span.

        Returns ``None`` if the vector was independent (the span grew), or
        the representation ``{tag: coeff}`` of the vector on the previously
        inserted ones if it was already in the span.
        """
        residual = _sparse(vec, self.field.p, self.width)
        combo = self._reduce(residual)
        if not residual:
            return combo
        p = self.field.p
        pivot = min(residual)
        inv = inverse(residual[pivot], p)
        rcombo = _scaled(combo, -inv, p)
        _eliminate(rcombo, -inv, {tag: 1}, p)  # rcombo[tag] += inv
        self.rows.append((pivot, _scaled(residual, inv, p), rcombo))
        return None

    def represent(self, vec: Mapping[int, Raw]):
        """Representation of ``vec`` on the inserted vectors, or None if outside."""
        residual = _sparse(vec, self.field.p, self.width)
        combo = self._reduce(residual)
        return None if residual else combo

    def contains(self, vec: Mapping[int, Raw]) -> bool:
        return self.represent(vec) is not None


def row_rank(rows: Iterable[Mapping[int, Raw]], field: FieldSpec,
             width: int) -> int:
    """Dimension of the span of ``rows``."""
    return len(Echelon(field, width, rows).rows)


def rref(rows: Iterable[Mapping[int, Raw]], field: FieldSpec,
         width: int) -> list[list[Raw]]:
    """Canonical reduced row echelon form (rows sorted by pivot column)."""
    ordered = sorted(Echelon(field, width, rows).rows, key=lambda pr: pr[0])
    # back-substitute so that every pivot column is zero elsewhere
    for i in range(len(ordered) - 1, -1, -1):
        pivot, row = ordered[i]
        for k in range(i):
            target = ordered[k][1]
            c = target.get(pivot)
            if c is not None:
                _eliminate(target, c, row, field.p)
    return [[row.get(j, 0) for j in range(width)] for _, row in ordered]
