"""Linear-algebraic Cohen-Macaulayness test and cell-basis machinery.

Everything here runs on a pure, balanced boolean complex, read off its
balancing (``balancing.complex``) or off a :class:`CellBasis`, which also
carries the field.  The facet vector
of a face is its 0/1 incidence row against the facet list; the test
processes faces in an order refining containment of label sets, growing a
candidate basis of faces whose facet vectors are independent, and fails
exactly when a dependent face needs an earlier face whose label set is not
contained in its own.  On success the surviving faces index a module basis
of the ring over the label-row parameter subring; the same incidence data
then represents arbitrary ring elements on the basis with
parameter-polynomial coefficients.

Every facet e has one face e_S with label set S, and a face G with label set
inside S lies in e iff it lies in e_S.  So the facet vectors of such faces
satisfy the same linear relations as their incidence rows against the faces
with label set S, where a face F with label set S has a unit row: whether F
needs only members with label sets inside S is decided there.

That decision is read off one pivot set per label set.  Let W_S be the span
of the rows of the members with label sets strictly inside S.  When F comes
up, the local span is W_S plus the unit rows of the S-faces processed before
F (a discarded one already lies in it), so e_F lies in it iff some vector of
W_S has its last nonzero entry, in processing order, at F.  With the
S-columns numbered in reverse processing order, that entry is a vector's
first, and the first entries of W_S are the pivots of any echelon of it:
F needs only members inside S iff its column is a pivot.

Those echelons and :func:`verify_basis` take members in reverse order, which
changes no rank or representation: a larger label set lies in fewer facets,
and the empty face's all-ones row, taken last, fills in no later row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import sub
from typing import Iterable, Sequence

from .coeff import FieldSpec, Raw
from .complexes import EMPTY, Balancing, BooleanComplex, mask_members
from .errors import BasisInvalid, FieldMismatch, InputError, OrderNotCompatible
from .face_ring import (
    Mono,
    ParameterPolynomial,
    RingElement,
    add_terms,
    mono_label_multidegree,
)
from .linalg import Echelon, RowSpan, row_rank, rref

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


def facet_vector(complex: BooleanComplex, face: int | str) -> tuple[int, ...]:
    """0/1 incidence of the face with each facet, in facet order.

    0 and 1 are canonical scalars of every field, so the vector does not
    depend on one.
    """
    if not complex.is_pure():
        raise InputError("facet vectors need a pure complex")
    row = _incidence(complex, complex.resolve(face), _columns(complex.facets))
    return tuple(row.get(j, 0) for j in range(len(complex.facets)))


def selected_facets(balancing: Balancing, labels: frozenset[int]) -> list[int]:
    """Facets of ``label_selected(balancing, labels)`` as indices of the
    balanced complex, without building the subcomplex.

    Every facet sees each label once, so for a subset of 1..n these are
    exactly the faces whose label set is ``labels``, in index order; for the
    empty set that is the empty face.
    """
    return list(balancing.faces_by_label_set.get(labels, ()))


def default_processing_order(balancing: Balancing) -> list[int]:
    """Label-set blocks sorted by (cardinality, lexicographic), faces within a
    block by internal index."""
    blocks = sorted(balancing.faces_by_label_set.items(),
                    key=lambda block: (len(block[0]), sorted(block[0])))
    return [f for _, faces in blocks for f in faces]


def validate_processing_order(balancing: Balancing,
                              order: Sequence[int | str]) -> list[int]:
    """Check that an explicit order covers every face and refines containment
    of label sets (strictly smaller label sets come first).

    A violation names the pair of positions i < j with the smallest i, then j.
    """
    complex = balancing.complex
    idx = [complex.resolve(f) for f in order]
    if sorted(idx) != list(range(len(complex))):
        raise OrderNotCompatible("order must list every face exactly once")
    first: dict[frozenset[int], int] = {}
    pairs: list[tuple[int, int]] = []
    for j, b in enumerate(idx):
        labels = balancing.label_sets[b]
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
    """Faces whose generators form a module basis over the label-row parameters.

    Append-only memos, each key stored once by ``dict.setdefault``: one
    :meth:`selected` entry per label set, and one :meth:`represent_monomial`
    entry per face (at most ``len(complex)`` entries).
    """

    def __init__(self, balancing: Balancing, field: FieldSpec,
                 members: Sequence[int]):
        self.complex = balancing.complex
        self.balancing = balancing
        self.field = field
        self.members = tuple(members)
        self._selected: dict[frozenset[int], _SelectedData] = {}
        self._by_face: dict[int, tuple[tuple[int, tuple[int, ...], Raw], ...]] = {}

    def selected(self, labels: Iterable[int]) -> _SelectedData:
        """Members with label set inside ``labels``, a subset of 1..n
        (``InputError`` otherwise), with their facet vectors row-reduced
        inside the label-selected subcomplex.

        The subcomplex is never built: its facets are the faces whose label
        set equals ``labels`` (:func:`selected_facets`), and the members'
        incidence rows against them come from the parent's order relation.
        """
        key = frozenset(labels)
        cached = self._selected.get(key)
        if cached is not None:
            return cached
        if not key <= frozenset(range(1, self.balancing.n + 1)):
            raise InputError(f"label set {sorted(key)} is not inside "
                             f"1..{self.balancing.n}")
        members = [m for m in self.members
                   if self.balancing.label_sets[m] <= key]
        facets = selected_facets(self.balancing, key)
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
        return self._selected.setdefault(
            key, _SelectedData(facets, columns, members, span))

    def represent_monomial(self, mono: Mono,
                           ) -> list[tuple[int, tuple[int, ...], Raw]]:
        """A standard monomial as (member, exponents, coefficient) triples:
        mono = sum of coefficient * t^exponents * z_member over the label-row
        parameters t, members in basis order.

        Every factor but one copy of the top face x_top absorbs into t, and
        x_top is solved against the facet vectors of the members selected by
        its label set, which :meth:`selected` has checked to be a basis of
        its columns; that solution is memoized per face.  A member's
        exponents are the label multidegree of mono less its own labels.
        """
        top = mono[-1][0] if mono else EMPTY
        rep = self._by_face.get(top)
        if rep is None:
            data = self.selected(self.balancing.label_sets[top])
            combo = data.span.represent(
                _incidence(self.complex, top, data.columns))
            rep = self._by_face.setdefault(top, tuple(
                (m, mono_label_multidegree(self.balancing, ((m, 1),)), combo[m])
                for m in data.members if m in combo))
        degree = mono_label_multidegree(self.balancing, mono)
        return [(m, tuple(map(sub, degree, labels)), c) for m, labels, c in rep]


@dataclass
class CMVerdict:
    """Either a certified cell basis, or a witness face whose facet vector
    needs a member with a label set not contained in the witness's."""

    cohen_macaulay: bool
    basis: CellBasis | None = None
    witness: int | None = None
    representation: list[tuple[int, Raw]] | None = None


def compute_basis(balancing: Balancing, field: FieldSpec,
                  order: Sequence[int | str] | None = None) -> CMVerdict:
    """Run the incremental facet-vector test and build a cell basis.

    Faces are processed in an order refining containment of label sets
    (validated when supplied).  A face whose vector leaves the current span
    joins the basis; one whose unique representation uses only members with
    smaller-or-equal label sets is discarded; any other face is a witness
    that no cell basis exists.  The discard test reads the pivot set of the
    members with label sets strictly inside F's label set S, against the
    faces with label set S (module docstring), taken once every smaller
    label set is done; only a witness is represented on the members.
    Facets, with the full label set, come last and are never witnesses (the
    local span there is all the members'), so the scan stops at the first
    facet met with the span full.
    """
    complex, label_sets = balancing.complex, balancing.label_sets
    if order is None:
        idx_order = default_processing_order(balancing)
    else:
        idx_order = validate_processing_order(balancing, order)
    m = len(complex.facets)
    columns = _columns(complex.facets)
    full = frozenset(range(1, balancing.n + 1))
    span = Echelon(field, m)
    members: list[int] = []
    blocks: dict[frozenset[int], list[int]] = {}  # each label set's faces, in order
    for face in idx_order:
        blocks.setdefault(label_sets[face], []).append(face)
    discarded: dict[frozenset[int], set[int]] = {}
    for face in idx_order:
        labels = label_sets[face]
        if labels == full and len(span.rows) == m:
            break
        if labels not in discarded:
            # columns in reverse processing order: a pivot is a discarded face
            local_faces = blocks[labels][::-1]
            local_columns = _columns(local_faces)
            local = Echelon(
                field, len(local_faces),
                (_incidence(complex, b, local_columns)
                 for b in reversed(members) if label_sets[b] < labels))
            discarded[labels] = {local_faces[pivot] for pivot, _ in local.rows}
        if face in discarded[labels]:
            continue
        residual = span.reduce(_incidence(complex, face, columns))
        if not residual:
            witness = RowSpan(field, m)
            for b in reversed(members):
                witness.insert(b, _incidence(complex, b, columns))
            rep = witness.represent(_incidence(complex, face, columns))
            ordered = [(b, rep[b]) for b in members if b in rep]
            return CMVerdict(False, witness=face, representation=ordered)
        span.append(residual)
        members.append(face)
    return CMVerdict(True, basis=CellBasis(balancing, field, members))


@dataclass
class BasisReport:
    valid: bool
    per_label_set: dict[tuple[int, ...], dict]


def verify_basis(balancing: Balancing, field: FieldSpec,
                 candidate: Sequence[int | str]) -> BasisReport:
    """Square-and-nonsingular check of a proposed cell basis.

    For every label subset S, the members with label set inside S must match
    the facets of the label-selected subcomplex in number, and their
    incidence matrix there must be nonsingular.
    """
    complex = balancing.complex
    members = [complex.resolve(f) for f in candidate]
    if len(set(members)) < len(members):
        m = next(m for i, m in enumerate(members) if m in members[:i])
        raise InputError(f"candidate lists face {complex.ids[m]!r} more than once")
    n = balancing.n
    per: dict[tuple[int, ...], dict] = {}
    valid = True
    for r in range(n + 1):
        for s in itertools.combinations(range(1, n + 1), r):
            key = frozenset(s)
            chosen = [m for m in members if balancing.label_sets[m] <= key]
            facets = selected_facets(balancing, key)
            square = len(chosen) == len(facets)
            nonsingular = False
            if square:
                columns = _columns(facets)
                nonsingular = row_rank(
                    (_incidence(complex, m, columns) for m in reversed(chosen)),
                    field, len(facets)) == len(chosen)
            per[s] = {"members": len(chosen), "facets": len(facets),
                      "square": square, "nonsingular": nonsingular}
            valid = valid and square and nonsingular
    return BasisReport(valid, per)


def subspace_M_S(balancing: Balancing, field: FieldSpec,
                 labels: Iterable[int]) -> list[list[Raw]]:
    """Canonical row-space basis of the span of the facet vectors of the faces
    whose label set equals S (the image of their span inside the facet
    component)."""
    complex = balancing.complex
    columns = _columns(complex.facets)
    rows = [_incidence(complex, f, columns)
            for f in balancing.faces_by_label_set.get(frozenset(labels), ())]
    return rref(rows, field, len(complex.facets))


def represent_on_cell_basis(basis: CellBasis, element: RingElement,
                            ) -> dict[int, ParameterPolynomial]:
    """Coefficients q_b with element = sum of q_b(parameters) * z_b over the basis.

    Each standard monomial is represented by
    :meth:`CellBasis.represent_monomial`, and the triples are summed.
    """
    if element.complex is not basis.complex or element.discrete:
        raise InputError("element must live in the face ring of this complex")
    if element.field != basis.field:
        raise FieldMismatch("element and basis must agree on the field")
    out: dict[int, dict] = {b: {} for b in basis.members}
    for mono, coeff in element.terms.items():
        for member, lifted, c in basis.represent_monomial(mono):
            add_terms(out[member], [(lifted, coeff * c)])
    return {b: ParameterPolynomial(basis.balancing.n, basis.field, t)
            for b, t in out.items()}

