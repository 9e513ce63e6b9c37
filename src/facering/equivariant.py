"""Automorphism groups, basis-transfer morphisms, and group averaging.

A morphism between the subdivision's ring and the face ring is stored by its
images of a cell basis and evaluated parameter-linearly: represent the input
on the basis, then re-evaluate the coefficients with the face-ring
parameters against the stored images.  Averaging such a morphism over a
finite automorphism group keeps the parameter-linearity (the parameters are
invariant) and produces the equivariant isomorphism whenever the group
order is invertible in the field.  A morphism memoizes only the products
theta^a * image; ``average`` remembers, for one call, the image of each
chain monomial it meets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from itertools import groupby
from math import comb
from typing import Callable, Iterable, Mapping, Sequence

from .coeff import FieldSpec, inverse, normal
from .complexes import EMPTY, BooleanComplex, face_id_of_vertex_set
from .errors import (
    ComplexMismatch,
    DomainError,
    FieldMismatch,
    GroupTooLarge,
    InputError,
    NotAnAutomorphism,
    OrderNotInvertible,
)
from .face_ring import Mono, RingElement, _step_terms, add_terms, graded_monomials
from .linalg import row_rank
from .partitions import Partition, sh, strictly_dominates
from .transfer import TransferContext
from .cm_basis import CellBasis

GROUP_ORDER_CAP = 10000  # the largest group order close_group builds


@dataclass(frozen=True)
class Automorphism:
    """A rank- and order-preserving permutation of the faces, fixing the empty face."""

    complex: BooleanComplex
    perm: tuple[int, ...]

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other."""
        return Automorphism(self.complex,
                            tuple(self.perm[other.perm[f]]
                                  for f in range(len(self.perm))))

    def inverse(self) -> "Automorphism":
        inv = [0] * len(self.perm)
        for f, g in enumerate(self.perm):
            inv[g] = f
        return Automorphism(self.complex, tuple(inv))

    @property
    def is_identity(self) -> bool:
        return all(g == f for f, g in enumerate(self.perm))


def _validate_automorphism(complex: BooleanComplex,
                           perm: Sequence[int]) -> Automorphism:
    if sorted(perm) != list(range(len(complex))):
        raise NotAnAutomorphism("face map is not a bijection")
    if perm[EMPTY] != EMPTY:
        raise NotAnAutomorphism("the empty face must be fixed")
    cover_set = {(c, f) for f in range(len(complex)) for c in complex.covers[f]}
    for c, f in cover_set:
        if (perm[c], perm[f]) not in cover_set:
            raise NotAnAutomorphism(
                f"cover {complex.ids[c]!r} < {complex.ids[f]!r} is not preserved")
    return Automorphism(complex, tuple(perm))


def automorphism_from_face_map(complex: BooleanComplex,
                               mapping: Mapping[str, str]) -> Automorphism:
    """Build an automorphism from a partial face-id map (identity elsewhere)."""
    perm = list(range(len(complex)))
    for src, dst in mapping.items():
        perm[complex.resolve(src)] = complex.resolve(dst)
    return _validate_automorphism(complex, perm)


def automorphism_from_vertex_map(complex: BooleanComplex,
                                 mapping: Mapping[str, str]) -> Automorphism:
    """Extend a vertex permutation to faces.

    Only valid when faces are determined by their vertex sets (simplicial
    complexes); a doubled edge, for instance, cannot be described this way.
    Every key and value must name a vertex.
    """
    by_atoms: dict[int, int] = {}
    for f in range(len(complex)):
        if complex.atoms[f] in by_atoms:
            raise NotAnAutomorphism(
                "faces are not determined by vertex sets; supply a face map")
        by_atoms[complex.atoms[f]] = f
    vperm = {v: v for v in complex.vertices()}
    for src, dst in mapping.items():
        v, w = complex.resolve(src), complex.resolve(dst)
        for f in (v, w):
            if complex.rank[f] != 1:
                raise NotAnAutomorphism(
                    f"vertex map names {complex.ids[f]!r}, which is not a vertex")
        vperm[v] = w
    perm = []
    for f in range(len(complex)):
        mask = 0
        for v in complex.vertices_of(f):
            mask |= 1 << vperm[v]
        image = by_atoms.get(mask)
        if image is None:
            raise NotAnAutomorphism(
                f"vertex map does not send face {complex.ids[f]!r} to a face")
        perm.append(image)
    return _validate_automorphism(complex, perm)


@dataclass(frozen=True)
class Group:
    """A finite group of automorphisms, closed under composition, with the
    non-identity generators it was closed from."""

    complex: BooleanComplex
    elements: tuple[Automorphism, ...]
    generators: tuple[Automorphism, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def close_group(complex: BooleanComplex,
                generators: Iterable[Automorphism]) -> Group:
    """Close a generating set under composition (inverses follow by finiteness)."""
    gens = list(generators)
    for g in gens:
        if g.complex is not complex:
            raise ComplexMismatch("generator belongs to a different complex")
    identity = Automorphism(complex, tuple(range(len(complex))))
    seen = {identity.perm: identity}
    frontier = [identity]
    while frontier:
        sigma = frontier.pop()
        for g in gens:
            tau = g.compose(sigma)
            if tau.perm not in seen:
                if len(seen) >= GROUP_ORDER_CAP:
                    raise GroupTooLarge(f"group exceeds cap {GROUP_ORDER_CAP}")
                seen[tau.perm] = tau
                frontier.append(tau)
    return Group(complex, tuple(sorted(seen.values(), key=lambda a: a.perm)),
                 tuple({g.perm: g for g in gens if not g.is_identity}.values()))


def act(sigma: Automorphism, element: RingElement) -> RingElement:
    """Permute the faces in every monomial; coefficients are unchanged."""
    if sigma.complex is not element.complex:
        raise ComplexMismatch("automorphism acts on a different complex")
    return element.map_faces(sigma.perm)


# -- morphisms stored by basis images ---------------------------------------------


class Morphism:
    """A parameter-linear map from the subdivision's ring to the face ring,
    stored by its images of a cell basis, over the basis's field.  Any images
    define one (gamma^a * b maps to theta^a * images[b]); whether it is
    equivariant or bijective is for :func:`verify_morphism` to say.  Checked
    once: a basis on the context's subdivision complex and, for every
    member, an image (``InputError``) in the source's face ring
    (``ComplexMismatch``) over the basis's field (``FieldMismatch``);
    ``apply`` takes the subdivision's ring over that field.

    One append-only memo serves ``apply``: the terms of each product
    theta^a * images[member] for an exponent vector a met in a cell-basis
    representation, or on the way down to one.  A monomial's image is the
    sum of c * product over its (member, a, c) triples
    (:meth:`CellBasis.represent_monomial`, which keeps its own memo of at
    most one entry per face of the subdivision), by bilinearity, and a
    product is peeled one theta_j step at a time, so no theta polynomial is
    expanded and multiplied as a whole.  The face ring is free over the
    theta parameters on the transferred members, which have the members'
    degrees, so the pairs (a, member) of one total degree are exactly as
    many as the standard monomials of that degree: the product memo never
    holds more entries than the standard monomials of degree up to the
    largest one applied.
    """

    def __init__(self, ctx: TransferContext, basis: CellBasis,
                 images: Mapping[int, RingElement]):
        if basis.complex is not ctx.sd.target:
            raise ComplexMismatch("basis must live on the subdivision complex")
        for member in basis.members:
            image = images.get(member)
            if image is None:
                raise InputError(f"no image for member {basis.complex.ids[member]!r}")
            if image.complex is not ctx.sd.source or image.discrete:
                raise ComplexMismatch("images must lie in the source's face ring")
            if image.field != basis.field:
                raise FieldMismatch("images and basis must agree on the field")
        self.ctx = ctx
        self.basis = basis
        self.images = {m: images[m] for m in basis.members}
        self._product_cache: dict[tuple[int, tuple[int, ...]], dict[Mono, object]] = {}

    def apply(self, element: RingElement) -> RingElement:
        """Represent on the stored basis, then evaluate the coefficients with
        the face-ring parameters against the images."""
        if element.complex is not self.ctx.sd.source or not element.discrete:
            raise ComplexMismatch("expected an element of the subdivision ring")
        if element.field != self.basis.field:
            raise FieldMismatch("element and morphism must agree on the field")
        terms: dict[Mono, object] = {}
        for mono, coeff in element.terms.items():
            cell = self.ctx.cell_mono_of_multichain(mono)
            for member, a, c in self.basis.represent_monomial(cell):
                add_terms(terms, ((m, coeff * c * x) for m, x
                                  in self._product(a, member).items()))
        return RingElement(self.ctx.sd.source, self.basis.field, False, terms)

    def _product(self, exponents: tuple[int, ...],
                 member: int) -> dict[Mono, object]:
        """The terms of theta^exponents * images[member], memoized under
        (member, exponents), one theta_j step at a time: walks down the keys,
        lowering the first nonzero exponent, to the first one memoized, then
        steps back up in a loop, so no exponent is deep enough to exhaust the
        interpreter stack."""
        cache = self._product_cache
        exps = list(exponents)
        pending: list[tuple[tuple[int, tuple[int, ...]], int]] = []
        while (key := (member, tuple(exps))) not in cache:
            j = next((i for i, e in enumerate(exps) if e > 0), None)
            if j is None:
                cache.setdefault(key, self.images[member].terms)
                break
            pending.append((key, j))
            exps[j] -= 1
        product = cache[key]
        complex, p = self.ctx.sd.source, self.basis.field.p
        for key, j in reversed(pending):
            product = cache.setdefault(key, _step_terms(complex, product, j + 1, p))
        return product


def build_phi(ctx: TransferContext, sd_basis: CellBasis) -> Morphism:
    """The basis-transfer morphism: each member maps to its transferred monomial."""
    images = {m: ctx.member_image(m, sd_basis.field) for m in sd_basis.members}
    return Morphism(ctx, sd_basis, images)


def average(morphism: Morphism, group: Group) -> Morphism:
    """Group-average a morphism: the new image of each member b is
    (1/|G|) * sum over sigma of sigma applied to morphism(sigma^{-1} b)."""
    ctx = morphism.ctx
    if group.complex is not ctx.sd.source:
        raise ComplexMismatch("group acts on a different complex")
    field = morphism.basis.field
    if field.p is not None and group.order % field.p == 0:
        raise OrderNotInvertible(
            f"group order {group.order} is zero in {field}")
    scale = inverse(normal(group.order, field.p), field.p)
    pairs = [(sigma.perm, sigma.inverse().perm) for sigma in group]
    images: dict[int, RingElement] = {}
    # chain monomial -> its image, at most one per face of the subdivision
    seen: dict[Mono, RingElement] = {}
    for member in morphism.basis.members:
        chain = ctx.sd.chain_of[member]
        terms: dict[Mono, object] = {}
        for perm, inv in pairs:
            # canonical already: see RingElement.map_faces
            mono = tuple((inv[f], 1) for f in chain)
            if (image := seen.get(mono)) is None:
                image = seen[mono] = morphism.apply(
                    RingElement(ctx.sd.source, field, True, {mono: 1}))
            add_terms(terms, ((tuple((perm[f], e) for f, e in m), c)
                              for m, c in image.terms.items()))
        images[member] = RingElement(ctx.sd.source, field, False,
                                     {m: scale * c for m, c in terms.items()})
    return Morphism(ctx, morphism.basis, images)


# -- verification -------------------------------------------------------------------


def check_degree_bound(degree_bound: int) -> None:
    """A negative degree bound checks nothing, so it is an input error."""
    if degree_bound < 0:
        raise InputError(f"degree bound must be at least 0, got {degree_bound}")


@dataclass
class MorphismReport:
    equivariant: bool
    isomorphism: bool
    failures: list[dict] = dc_field(default_factory=list)


def verify_map(apply_fn: Callable[[RingElement], RingElement],
               field: FieldSpec, group: Group,
               degree_bound: int) -> MorphismReport:
    """Property-check a linear map from the subdivision's ring to the face ring
    of the complex the group acts on.

    Each degree up to the bound applies the map once to every standard
    monomial.  Equivariance is checked on the group's generators, by lookup:
    an automorphism sends a standard monomial m to the standard monomial
    sigma.m of the same degree, so the check compares the image already
    computed for sigma.m with sigma applied to the image of m.  For a linear
    map, passing on the generators is passing on every group element.  The
    isomorphism check materializes the degreewise matrices and tests
    nonsingularity.  This is evidence up to the bound, not a proof.  A
    negative bound and a map that does not preserve degree are input errors.
    """
    check_degree_bound(degree_bound)
    source = group.complex
    failures: list[dict] = []
    equivariant = True
    isomorphism = True
    for d in range(degree_bound + 1):
        monos = graded_monomials(source, degree=d)
        images = {m: apply_fn(RingElement(source, field, True, {m: 1})) for m in monos}
        for sigma in group.generators:
            perm = sigma.perm
            for mono in monos:
                # sigma.mono is standard, of degree d (see RingElement.map_faces)
                moved = tuple((perm[g], e) for g, e in mono)
                if images[moved] != act(sigma, images[mono]):
                    equivariant = False
                    failures.append({
                        "kind": "equivariance", "degree": d,
                        "monomial": [[source.ids[g], e] for g, e in mono]})
                    break
        index = {m: i for i, m in enumerate(monos)}
        try:
            rows = [{index[m]: c for m, c in images[mono].terms.items()}
                    for mono in monos]
        except KeyError:
            raise InputError(f"the map does not preserve degree {d}") from None
        rank = row_rank(rows, field, len(monos))
        if rank != len(monos):
            isomorphism = False
            failures.append({"kind": "isomorphism", "degree": d,
                             "rank": rank, "dimension": len(monos)})
    return MorphismReport(equivariant, isomorphism, failures)


def verify_morphism(morphism: Morphism, group: Group,
                    degree_bound: int | None = None) -> MorphismReport:
    if degree_bound is None:
        n = group.complex.n
        degree_bound = n * (n + 1)
    return verify_map(morphism.apply, morphism.basis.field, group, degree_bound)


# -- the odd cross-term computation ---------------------------------------------------


CROSS_TERM_MAX_D = 100  # the largest d that odd_cross_term_witness accepts


@dataclass
class CrossTermWitness:
    """The distinguished term of theta_1 ... theta_d on the d-simplex.

    ``monomial`` is its chain as (face id, exponent) pairs, smallest face
    first; the ids are those of ``build_from_facets`` on the vertices
    "0" .. "d".
    """

    monomial: tuple[tuple[str, int], ...]
    coefficient: int
    shape: Partition
    staircase: Partition
    strictly_dominated: bool

    @property
    def odd(self) -> bool:
        return self.coefficient % 2 == 1


def theta_product_count(row_sums: Iterable[int], column_sums: Iterable[int]) -> int:
    """The number of 0/1 matrices with the given row and column sums.

    On a simplicial complex a product x_{S_1} ... x_{S_d} straightens to the
    single chain of superlevel sets {v : mu(v) >= t} of its vertex
    multiplicities mu, with coefficient one (Garsia 1980; De Concini,
    Eisenbud and Procesi 1982).  So in the product of the rank-row
    parameters theta_j (j in ``row_sums``) the chain with multiplicities
    ``column_sums`` has this count as its coefficient: row j is the vertex
    set S_j.

    A dynamic program over the columns, largest first.  Its state is the
    decreasing tuple of the rows' positive remaining sums: rows with equal
    sums are interchangeable, so a column takes k rows from a run of m equal
    ones in comb(m, k) ways.  With ``later`` columns still to come, a row
    whose sum exceeds ``later`` must be taken, and one whose sum exceeds
    ``later + 1`` can no longer be met.
    """
    rows = sorted(row_sums, reverse=True)
    columns = sorted(column_sums, reverse=True)
    if min(rows + columns, default=0) < 0 or sum(rows) != sum(columns):
        return 0
    columns = [c for c in columns if c]
    states = {tuple(r for r in rows if r): 1}
    for i, take in enumerate(columns):
        later = len(columns) - i - 1
        after: dict[tuple[int, ...], int] = {}
        for state, ways in states.items():
            if state[0] > later + 1:
                continue
            # (remaining sums so far, rows taken so far) -> ways, run by run
            partial = {((), 0): ways}
            rest = len(state)
            for value, run in groupby(state):
                m = len(list(run))
                rest -= m
                partial = {
                    (parts + (value,) * (m - k) + (value - 1,) * k, taken + k):
                        w * comb(m, k)
                    for (parts, taken), w in partial.items()
                    for k in range(max(m if value > later else 0,
                                       take - taken - rest),
                                   min(m, take - taken) + 1)}
            for (parts, taken), w in partial.items():
                nxt = tuple(sorted(filter(None, parts), reverse=True))
                after[nxt] = after.get(nxt, 0) + w
        states = after
    return states.get((), 0)


def odd_cross_term_witness(d: int) -> CrossTermWitness:
    """The coefficient of the distinguished non-staircase term in the
    product of the first d rank-row parameters on the d-simplex.

    The term is the bottom triangle times the prefix faces {0..i} for
    i = 2..d-1.  Its coefficient is the count of 0/1 matrices with row sums
    1..d and the term's vertex multiplicities as column sums
    (``theta_product_count``), so no complex or ring element is built.  The
    coefficient is odd (it equals 3), which obstructs equivariant averaging
    in characteristic two.
    """
    if not 2 <= d <= CROSS_TERM_MAX_D:
        raise InputError(f"d must be between 2 and {CROSS_TERM_MAX_D}, got {d}")
    chain = sorted(Counter([3, *range(3, d + 1)]).items())  # (size, exponent)
    vertices = [str(v) for v in range(d + 1)]
    monomial = tuple((face_id_of_vertex_set(vertices[:size]), e)
                     for size, e in chain)
    multiplicity = [sum(e for size, e in chain if v < size)
                    for v in range(d + 1)]
    coeff = theta_product_count(range(1, d + 1), multiplicity)
    by_rank = [0] * (d + 1)
    for size, e in chain:
        by_rank[size - 1] = e
    staircase = Partition(range(d, 0, -1))
    shape = sh(by_rank)
    witness = CrossTermWitness(monomial, coeff, shape, staircase,
                               strictly_dominates(staircase, shape))
    if not witness.odd:
        raise DomainError(
            f"the distinguished cross-term coefficient {coeff} is not odd")
    return witness
