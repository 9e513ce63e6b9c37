"""Exact row reduction over a coefficient field, on one elimination core.

:class:`Echelon` is the one elimination loop: the core of :func:`row_rank`,
:func:`rref` and the Cohen-Macaulay test.  :class:`RowSpan` is an
:class:`Echelon` whose rows carry, after the ``width`` real columns, one
combination column per inserted vector that grew the span: column
``width + k`` is the row's coefficient on the k-th such vector.  Reducing a
vector of the span clears its real columns and leaves the negated
combination in those extra columns, which is the unique representation that
the cell basis and a Cohen-Macaulay witness need.  Pivots are the first
nonzero column, so never a combination column; arithmetic is exact, there
are no thresholds.

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
        """The residual of ``vec`` after eliminating every pivot; it has no
        real column iff ``vec`` lies in the span."""
        if vec and (min(vec) < 0 or max(vec) >= self.width):
            raise ValueError("vector width mismatch")
        p = self.field.p
        residual = {j: y for j, x in vec.items() if (y := normal(x, p))}
        for pivot, row in self.rows:
            c = residual.get(pivot)
            if c is not None:
                _eliminate(residual, c, row, p)
        return residual

    def append(self, residual: SparseRow) -> None:
        """Add a nonzero residual returned by :meth:`reduce` as a new row."""
        pivot = min(residual)
        p = self.field.p
        c = inverse(residual[pivot], p)
        self.rows.append((pivot, {j: normal(c * x, p) for j, x in residual.items()}))


class RowSpan(Echelon):
    """An :class:`Echelon` that also represents vectors on the tagged ones
    that grew it: column ``width + k`` of a row is its coefficient on
    ``tags[k]``.  Those columns come after every real column, so no pivot
    lands in one."""

    def __init__(self, field: FieldSpec, width: int):
        super().__init__(field, width)
        self.tags: list[Hashable] = []

    def _combination(self, residual: SparseRow) -> dict[Hashable, Raw] | None:
        """The vector behind ``residual`` on the tagged ones (the negated
        combination columns), or None if a real column is left."""
        width, p = self.width, self.field.p
        if min(residual, default=width) < width:
            return None
        return {self.tags[j - width]: normal(-c, p) for j, c in residual.items()}

    def insert(self, tag: Hashable, vec: Mapping[int, Raw]):
        """Add a tagged vector to the span.

        Returns ``None`` if the vector was independent (the span grew), or
        the representation ``{tag: coeff}`` of the vector on the previously
        inserted ones if it was already in the span.
        """
        residual = self.reduce(vec)
        combo = self._combination(residual)
        if combo is not None:
            return combo
        residual[self.width + len(self.tags)] = 1
        self.append(residual)
        self.tags.append(tag)
        return None

    def represent(self, vec: Mapping[int, Raw]):
        """Representation of ``vec`` on the inserted vectors, or None if outside."""
        return self._combination(self.reduce(vec))


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
