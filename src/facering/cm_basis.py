"""Linear-algebraic Cohen-Macaulayness test and cell-basis machinery.

Everything here runs on a pure, balanced boolean complex.  The facet vector
of a face is its 0/1 incidence row against the facet list; the test
processes faces in an order refining containment of label sets, growing a
candidate basis of faces whose facet vectors are independent, and fails
exactly when a dependent face needs an earlier face whose label set is not
contained in its own.  On success the surviving faces index a module basis
of the ring over the label-row parameter subring, certified by the recorded
row-reduction state; the same incidence data then represents arbitrary ring
elements on the basis with parameter-polynomial coefficients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .coeff import FieldSpec, Raw
from .complexes import (
    EMPTY,
    Balancing,
    BooleanComplex,
    mask_members,
    require_valid_balancing,
)
from .errors import BasisInvalid, FieldMismatch, InputError, OrderNotCompatible
from .face_ring import (
    Mono,
    ParameterPolynomial,
    RingElement,
    add_terms,
    mono_label_multidegree,
)
from .linalg import RowSpan, rref

Columns = tuple[int, dict[int, int]]


def _columns(facets: Sequence[int]) -> Columns:
    """Bitmask of ``facets`` and the column of each facet."""
    return sum(1 << eps for eps in facets), {eps: j for j, eps in enumerate(facets)}


def _incidence(complex: BooleanComplex, face: int,
               columns: Columns) -> dict[int, int]:
    """Sparse 0/1 incidence ``{column: 1}`` of the face with the facets of
    ``columns``, read off the face's upset."""
    mask, column = columns
    return {column[eps]: 1 for eps in mask_members(complex.up[face] & mask)}


def facet_vector(complex: BooleanComplex, face: int | str,
                 field: FieldSpec) -> tuple[int, ...]:
    """0/1 incidence of the face with each facet, in facet order.

    0 and 1 are canonical scalars of every field, so the vector does not
    depend on ``field``.
    """
    if not complex.is_pure():
        raise InputError("facet vectors need a pure complex")
    row = _incidence(complex, complex.resolve(face), _columns(complex.facets))
    return tuple(row.get(j, 0) for j in range(len(complex.facets)))


def selected_facets(complex: BooleanComplex, balancing: Balancing,
                    labels: frozenset[int]) -> list[int]:
    """Facets of ``label_selected(complex, balancing, labels)`` as indices of
    the complex, without building the subcomplex.

    On a pure balanced complex these are exactly the faces whose label set is
    ``labels`` (restricted to the labels in use), in index order; for the
    empty set that is the empty face.
    """
    key = labels & balancing.labels
    return [f for f in range(len(complex)) if balancing.label_set(f) == key]


def default_processing_order(complex: BooleanComplex,
                             balancing: Balancing) -> list[int]:
    """Label-set blocks sorted by (cardinality, lexicographic), faces within a
    block by internal index."""
    faces = range(len(complex))
    return sorted(faces, key=lambda f: (
        len(balancing.label_set(f)),
        tuple(sorted(balancing.label_set(f))),
        f))


def validate_processing_order(complex: BooleanComplex, balancing: Balancing,
                              order: Sequence[int | str]) -> list[int]:
    """Check that an explicit order covers every face and refines containment
    of label sets (strictly smaller label sets come first).

    A violation names the pair of positions i < j with the smallest i, then j.
    """
    idx = [complex.resolve(f) for f in order]
    if sorted(idx) != list(range(len(complex))):
        raise OrderNotCompatible("order must list every face exactly once")
    first: dict[frozenset[int], int] = {}
    pairs: list[tuple[int, int]] = []
    for j, b in enumerate(idx):
        labels = balancing.label_set(b)
        pairs += [(i, j) for s, i in first.items() if labels < s]
        first.setdefault(labels, j)
    if pairs:
        i, j = min(pairs)
        a, b = idx[i], idx[j]
        raise OrderNotCompatible(
            f"face {complex.ids[b]!r} must be processed before "
            f"{complex.ids[a]!r}: its label set is strictly smaller")
    return idx


@dataclass
class _SelectedData:
    """Incidence data of the basis members inside one label-selected subcomplex.

    ``facets`` lists the facets of that subcomplex as indices of the parent
    complex (see :func:`selected_facets`), and ``columns`` gives their mask
    and columns; ``span`` holds the members' 0/1 incidence rows against them.
    """

    facets: list[int]
    columns: Columns
    members: list[int]
    span: RowSpan


class CellBasis:
    """Faces whose generators form a module basis over the label-row parameters,
    together with the row-reduction state that certified them."""

    def __init__(self, complex: BooleanComplex, balancing: Balancing,
                 field: FieldSpec, members: Sequence[int], span: RowSpan):
        self.complex = complex
        self.balancing = balancing
        self.field = field
        self.members = tuple(members)
        self.span = span
        self._selected: dict[frozenset[int], _SelectedData] = {}

    def label_set(self, member: int) -> frozenset[int]:
        return self.balancing.label_set(member)

    def selected(self, labels: Iterable[int]) -> _SelectedData:
        """Members with label set inside ``labels``, with their facet vectors
        row-reduced inside the label-selected subcomplex.

        The subcomplex is never built: its facets are the faces whose label
        set equals ``labels`` (:func:`selected_facets`), and the members'
        incidence rows against them come from the parent's order relation.
        """
        key = frozenset(labels)
        cached = self._selected.get(key)
        if cached is not None:
            return cached
        members = [m for m in self.members if self.label_set(m) <= key]
        facets = selected_facets(self.complex, self.balancing, key)
        if len(members) != len(facets):
            raise BasisInvalid(
                f"label set {sorted(key)}: {len(members)} members against "
                f"{len(facets)} facets of the selected subcomplex")
        columns = _columns(facets)
        span = RowSpan(self.field, len(facets))
        for m in members:
            rep = span.insert(m, _incidence(self.complex, m, columns))
            if rep is not None:
                raise BasisInvalid(
                    f"label set {sorted(key)}: facet vectors of the selected "
                    f"members are linearly dependent")
        data = _SelectedData(facets, columns, members, span)
        self._selected[key] = data
        return data


@dataclass
class CMVerdict:
    """Either a certified cell basis, or a witness face whose facet vector
    needs a member with a label set not contained in the witness's."""

    cohen_macaulay: bool
    basis: CellBasis | None = None
    witness: int | None = None
    representation: list[tuple[int, Raw]] | None = None

    def __bool__(self) -> bool:
        return self.cohen_macaulay


def compute_basis(complex: BooleanComplex, balancing: Balancing,
                  field: FieldSpec, order: Sequence[int | str] | None = None,
                  early_exit: bool = True,
                  trace: Callable[[int, RowSpan], None] | None = None,
                  ) -> CMVerdict:
    """Run the incremental facet-vector test and build a cell basis.

    Faces are processed in an order refining containment of label sets
    (validated when supplied).  A face whose vector leaves the current span
    joins the basis; one whose unique representation uses only members with
    smaller-or-equal label sets is discarded; any other face is a witness
    that no cell basis exists.  ``early_exit`` stops once the span is full
    and only facets remain, which cannot change the output.  ``trace`` is
    called with each face just before it is processed.
    """
    require_valid_balancing(complex, balancing)
    if order is None:
        idx_order = default_processing_order(complex, balancing)
    else:
        idx_order = validate_processing_order(complex, balancing, order)
    m = len(complex.facets)
    columns = _columns(complex.facets)
    full = frozenset(range(1, balancing.n + 1))
    span = RowSpan(field, m)
    members: list[int] = []
    for pos, face in enumerate(idx_order):
        if (early_exit and span.dim == m
                and all(balancing.label_set(g) == full for g in idx_order[pos:])):
            break
        if trace is not None:
            trace(face, span)
        rep = span.insert(face, _incidence(complex, face, columns))
        if rep is None:
            members.append(face)
            continue
        if any(not balancing.label_set(b) <= balancing.label_set(face)
               for b in rep):
            ordered = [(b, rep[b]) for b in members if b in rep]
            return CMVerdict(False, witness=face, representation=ordered)
    basis = CellBasis(complex, balancing, field, members, span)
    return CMVerdict(True, basis=basis)


@dataclass
class BasisReport:
    valid: bool
    per_label_set: dict[tuple[int, ...], dict]


def verify_basis(complex: BooleanComplex, balancing: Balancing,
                 field: FieldSpec, candidate: Sequence[int | str]) -> BasisReport:
    """Square-and-nonsingular check of a proposed cell basis.

    For every label subset S, the members with label set inside S must match
    the facets of the label-selected subcomplex in number, and their
    incidence matrix there must be nonsingular.
    """
    require_valid_balancing(complex, balancing)
    members = [complex.resolve(f) for f in candidate]
    n = balancing.n
    per: dict[tuple[int, ...], dict] = {}
    valid = True
    for r in range(n + 1):
        for s in itertools.combinations(range(1, n + 1), r):
            key = frozenset(s)
            chosen = [m for m in members if balancing.label_set(m) <= key]
            facets = selected_facets(complex, balancing, key)
            square = len(chosen) == len(facets)
            nonsingular = False
            if square:
                columns = _columns(facets)
                span = RowSpan(field, len(facets))
                nonsingular = all(
                    span.insert(m, _incidence(complex, m, columns)) is None
                    for m in chosen)
            per[s] = {"members": len(chosen), "facets": len(facets),
                      "square": square, "nonsingular": nonsingular}
            valid = valid and square and nonsingular
    return BasisReport(valid, per)


def subspace_M_S(complex: BooleanComplex, balancing: Balancing,
                 field: FieldSpec, labels: Iterable[int]) -> list[list[Raw]]:
    """Canonical row-space basis of the span of the facet vectors of the faces
    whose label set equals S (the image of their span inside the facet
    component)."""
    require_valid_balancing(complex, balancing)
    key = frozenset(labels)
    columns = _columns(complex.facets)
    rows = [_incidence(complex, f, columns) for f in range(len(complex))
            if balancing.label_set(f) == key]
    return rref(rows, field, len(complex.facets))


def _collapse(complex: BooleanComplex, balancing: Balancing,
              mono: Mono) -> tuple[tuple[int, ...], int]:
    """Write a standard monomial as (label-row parameter monomial) * z_top.

    Every factor except one copy of the top face absorbs into the product of
    the label-row parameters indexed by its label set.
    """
    if not mono:
        return (0,) * balancing.n, EMPTY
    top = mono[-1][0]
    exps = list(mono_label_multidegree(complex, balancing, mono))
    for j in balancing.label_set(top):
        exps[j - 1] -= 1
    return tuple(exps), top


def represent_on_cell_basis(complex: BooleanComplex, balancing: Balancing,
                            field: FieldSpec, basis: CellBasis,
                            element: RingElement,
                            ) -> dict[int, ParameterPolynomial]:
    """Coefficients q_b with element = sum of q_b(parameters) * z_b over the basis.

    Per standard monomial: collapse to a parameter monomial times its top
    generator, then express the top generator on the members selected by its
    label set by solving against their facet vectors in the label-selected
    subcomplex.
    """
    if element.complex is not complex or element.discrete:
        raise InputError("element must live in the face ring of this complex")
    if element.field != field or basis.field != field:
        raise FieldMismatch("element, basis, and field must agree")
    out: dict[int, dict] = {b: {} for b in basis.members}
    for mono, coeff in element.sorted_terms():
        exps, top = _collapse(complex, balancing, mono)
        labels = balancing.label_set(top)
        data = basis.selected(labels)
        combo = data.span.represent(_incidence(complex, top, data.columns))
        if combo is None:
            raise BasisInvalid(
                f"generator of face {complex.ids[top]!r} is outside the span "
                f"of the selected members")
        for member, c in combo.items():
            lifted = list(exps)
            for j in sorted(labels - basis.label_set(member)):
                lifted[j - 1] += 1
            add_terms(out[member], [(tuple(lifted), coeff * c)])
    return {b: ParameterPolynomial(balancing.n, field, t) for b, t in out.items()}


def evaluate_cell_representation(complex: BooleanComplex, balancing: Balancing,
                                 coefficients: dict[int, ParameterPolynomial],
                                 ) -> RingElement:
    """Expand sum of q_b(label rows) * z_b back into the face ring."""
    field = next(iter(coefficients.values())).field
    terms: dict[Mono, Raw] = {}
    for member in sorted(coefficients):
        poly = coefficients[member]
        if poly.is_zero:
            continue
        z = RingElement.monomial(complex, field, ((member, 1),))
        add_terms(terms, (poly.evaluate(complex, "omega", balancing)
                          * z).terms.items())
    return RingElement(complex, field, False, terms)
