"""Exact incremental row reduction over a coefficient field.

:class:`RowSpan` keeps an echelonized spanning set and, for every echelon
row, the coefficients that produced it from the inserted vectors.  Membership
tests therefore come with the unique representation of the queried vector on
the inserted ones, read off without re-solving.  Pivots are the first nonzero
column; arithmetic is exact, there are no thresholds.

Internally every row is a sparse dict ``{column: raw scalar}`` holding only
its nonzero entries, and the coefficients on the inserted vectors are raw
scalars too.  A raw scalar is a residue in ``[0, p)`` over GF(p).  Over Q it
is a Python ``int`` while the value is integral and a ``Fraction`` otherwise,
so the 0/1 facet vectors of the Cohen-Macaulay test eliminate in integer
arithmetic.  Q and GF(p) share one elimination loop.  The public methods take
a vector either as a dense :class:`FieldElement` sequence or as a sparse
mapping ``{column: raw scalar}``; field elements go out.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Mapping, Sequence

from .coeff import FieldElement, FieldSpec
from .errors import FieldMismatch

Raw = int | Fraction
SparseRow = dict[int, Raw]
Vector = Sequence[FieldElement] | Mapping[int, Raw]


def _normal(x: Raw, p: int | None) -> Raw:
    """Canonical raw scalar: a residue mod p, or over Q an int when integral."""
    if p is not None:
        return x % p
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _inverse(x: Raw, p: int | None) -> Raw:
    if p is not None:
        return pow(x, -1, p)
    if x == 1 or x == -1:
        return x
    return _normal(1 / Fraction(x), None)


def _eliminate(target: SparseRow, c: Raw, row: SparseRow, p: int | None) -> None:
    """``target -= c * row`` in place, dropping entries that become zero."""
    for j, x in row.items():
        y = _normal(target.get(j, 0) - c * x, p)
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

    def _sparse(self, vec: Vector) -> SparseRow:
        field = self.field
        if isinstance(vec, Mapping):
            if vec and (min(vec) < 0 or max(vec) >= self.width):
                raise ValueError("vector width mismatch")
            return {j: y for j, x in vec.items() if (y := _normal(x, field.p))}
        if len(vec) != self.width:
            raise ValueError("vector width mismatch")
        out: SparseRow = {}
        for j, x in enumerate(vec):
            v = x.value
            if v:
                if x.spec is not field and x.spec != field:
                    raise FieldMismatch(f"mixed fields {field} and {x.spec}")
                out[j] = _normal(v, field.p)
        return out

    def _element(self, x: Raw) -> FieldElement:
        # over Q the value must be a Fraction: coeff.invert computes 1 / value
        if self.field.p is None:
            return FieldElement(self.field, Fraction(x))
        return FieldElement(self.field, x)

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
                combo[tag] = _normal(combo.get(tag, 0) + c * x, p)
        return combo

    def _wrap(self, combo: dict[Hashable, Raw]) -> dict[Hashable, FieldElement]:
        return {t: self._element(c) for t, c in combo.items() if c}

    def insert(self, tag: Hashable, vec: Vector):
        """Add a tagged vector to the span.

        Returns ``None`` if the vector was independent (the span grew), or
        the representation ``{tag: coeff}`` of the vector on the previously
        inserted ones if it was already in the span.
        """
        residual = self._sparse(vec)
        combo = self._reduce(residual)
        if not residual:
            return self._wrap(combo)
        p = self.field.p
        pivot = min(residual)
        inv = _inverse(residual[pivot], p)
        row = {j: _normal(inv * x, p) for j, x in residual.items()}
        rcombo = {t: _normal(-(inv * c), p) for t, c in combo.items() if c}
        rcombo[tag] = _normal(rcombo.get(tag, 0) + inv, p)
        self.rows.append((pivot, row, {t: c for t, c in rcombo.items() if c}))
        return None

    def represent(self, vec: Vector):
        """Representation of ``vec`` on the inserted vectors, or None if outside."""
        residual = self._sparse(vec)
        combo = self._reduce(residual)
        if residual:
            return None
        return self._wrap(combo)

    def contains(self, vec: Vector) -> bool:
        residual = self._sparse(vec)
        self._reduce(residual)
        return not residual


def rref(rows: Sequence[Vector], field: FieldSpec,
         width: int) -> list[list[FieldElement]]:
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
    return [[span._element(row.get(j, 0)) for j in range(width)]
            for _, row in echelon]
