"""Automorphism groups, basis-transfer morphisms, and group averaging.

A morphism between the subdivision's ring and the face ring is stored by its
images of a cell basis and evaluated parameter-linearly: represent the input
on the basis, then re-evaluate the coefficients with the face-ring
parameters against the stored images.  Averaging such a morphism over a
finite automorphism group keeps the parameter-linearity (the parameters are
invariant) and produces the equivariant isomorphism whenever the group
order is invertible in the field.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterable, Mapping, Sequence

from .coeff import FieldSpec, inverse, is_unit_integer, normal
from .complexes import (
    EMPTY,
    BooleanComplex,
    SdMap,
    build_from_facets,
    face_id_of_vertex_set,
)
from .errors import (
    ComplexMismatch,
    DomainError,
    GroupTooLarge,
    InputError,
    NotAnAutomorphism,
    OrderNotInvertible,
)
from .face_ring import (
    Mono,
    RingElement,
    add_terms,
    canonical_mono,
    graded_monomials,
    mono_shape,
    parameter_monomial,
    rank_row_parameter,
)
from .linalg import RowSpan
from .partitions import Partition, strictly_dominates
from .transfer import TransferContext
from .cm_basis import CellBasis, represent_on_cell_basis


@dataclass(frozen=True)
class Automorphism:
    """A rank- and order-preserving permutation of the faces, fixing the empty face."""

    complex: BooleanComplex
    perm: tuple[int, ...]

    def __call__(self, face: int) -> int:
        return self.perm[face]

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

    def induce_on_subdivision(self, sd: SdMap) -> "Automorphism":
        """The permutation of the subdivision's faces through chains."""
        if sd.source is not self.complex:
            raise ComplexMismatch("automorphism and subdivision disagree")
        perm = [EMPTY] * len(sd.target)
        for f in range(1, len(sd.target)):
            image = tuple(sorted((self.perm[g] for g in sd.chain_of[f]),
                                 key=lambda g: self.complex.rank[g]))
            perm[f] = sd.face_of_chain[image]
        return Automorphism(sd.target, tuple(perm))


def _validate_automorphism(complex: BooleanComplex, perm: Sequence[int],
                           generator_index: int | None = None) -> Automorphism:
    if sorted(perm) != list(range(len(complex))):
        raise NotAnAutomorphism("face map is not a bijection",
                                generator_index=generator_index)
    if perm[EMPTY] != EMPTY:
        raise NotAnAutomorphism("the empty face must be fixed",
                                generator_index=generator_index)
    cover_set = {(c, f) for f in range(len(complex)) for c in complex.covers[f]}
    for c, f in cover_set:
        if (perm[c], perm[f]) not in cover_set:
            raise NotAnAutomorphism(
                f"cover {complex.ids[c]!r} < {complex.ids[f]!r} is not preserved",
                generator_index=generator_index,
                cover=(complex.ids[c], complex.ids[f]))
    return Automorphism(complex, tuple(perm))


def automorphism_from_face_map(complex: BooleanComplex,
                               mapping: Mapping[str, str],
                               generator_index: int | None = None) -> Automorphism:
    """Build an automorphism from a partial face-id map (identity elsewhere)."""
    perm = list(range(len(complex)))
    for src, dst in mapping.items():
        perm[complex.resolve(src)] = complex.resolve(dst)
    return _validate_automorphism(complex, perm, generator_index)


def automorphism_from_vertex_map(complex: BooleanComplex,
                                 mapping: Mapping[str, str],
                                 generator_index: int | None = None) -> Automorphism:
    """Extend a vertex permutation to faces.

    Only valid when faces are determined by their vertex sets (simplicial
    complexes); a doubled edge, for instance, cannot be described this way.
    """
    by_atoms: dict[int, int] = {}
    for f in range(len(complex)):
        if complex.atoms[f] in by_atoms:
            raise NotAnAutomorphism(
                "faces are not determined by vertex sets; supply a face map",
                generator_index=generator_index)
        by_atoms[complex.atoms[f]] = f
    vperm = {v: v for v in complex.vertices()}
    for src, dst in mapping.items():
        vperm[complex.resolve(src)] = complex.resolve(dst)
    perm = []
    for f in range(len(complex)):
        mask = 0
        for v in complex.vertices_of(f):
            mask |= 1 << vperm[v]
        image = by_atoms.get(mask)
        if image is None:
            raise NotAnAutomorphism(
                f"vertex map does not send face {complex.ids[f]!r} to a face",
                generator_index=generator_index)
        perm.append(image)
    return _validate_automorphism(complex, perm, generator_index)


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


def close_group(complex: BooleanComplex, generators: Iterable[Automorphism],
                cap: int = 10000) -> Group:
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
                if len(seen) >= cap:
                    raise GroupTooLarge(f"group exceeds cap {cap}")
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
    stored by its images of a cell basis.

    Two append-only memos serve ``apply``: the image of each standard
    monomial, and each product theta^a * images[member] for an exponent
    vector a met in a cell-basis representation.  By bilinearity the image
    of a monomial is the sum of c * product over the terms c * t^a of its
    coefficient polynomials, so no theta polynomial is expanded and
    multiplied as a whole.  The face ring is free over the theta parameters
    on the transferred members, which have the members' degrees, so the
    pairs (a, member) of one total degree are exactly as many as the
    standard monomials of that degree: the product memo never holds more
    entries than the standard monomials of the degrees applied.
    """

    def __init__(self, ctx: TransferContext, basis: CellBasis,
                 images: Mapping[int, RingElement]):
        self.ctx = ctx
        self.basis = basis
        self.images = {m: images[m] for m in basis.members}
        self._mono_cache: dict[Mono, RingElement] = {}
        self._product_cache: dict[tuple[tuple[int, ...], int], RingElement] = {}
        self._check_shape_filtered()

    def _check_shape_filtered(self) -> None:
        src = self.ctx.sd.source
        for member in self.basis.members:
            lam = mono_shape(src, tuple((f, 1) for f in self.ctx.sd.chain_of[member]))
            for mono in self.images[member].terms:
                mu = mono_shape(src, mono)
                if not (mu == lam or strictly_dominates(lam, mu)):
                    raise InputError(
                        "image terms must have shape dominated by the source")

    def member_element(self, member: int) -> RingElement:
        """The basis member as an element of the subdivision's ring."""
        mono = tuple((f, 1) for f in self.ctx.sd.chain_of[member])
        return RingElement(self.ctx.sd.source, self.ctx.field, True, {mono: 1})

    def apply(self, element: RingElement) -> RingElement:
        """Represent on the stored basis, then evaluate the coefficients with
        the face-ring parameters against the images."""
        if element.complex is not self.ctx.sd.source or not element.discrete:
            raise ComplexMismatch("expected an element of the subdivision ring")
        terms: dict[Mono, object] = {}
        for mono, coeff in element.terms.items():
            add_terms(terms, self._apply_mono(mono).scale(coeff).terms.items())
        return RingElement(self.ctx.sd.source, self.ctx.field, False, terms)

    def _apply_mono(self, mono: Mono) -> RingElement:
        cached = self._mono_cache.get(mono)
        if cached is None:
            source, field = self.ctx.sd.source, self.ctx.field
            single = RingElement(source, field, True, {mono: 1})
            cell = self.ctx.to_cell_form(single)
            rep = represent_on_cell_basis(self.ctx.sd.target,
                                          self.basis.balancing,
                                          field, self.basis, cell)
            terms: dict[Mono, object] = {}
            for member, poly in rep.items():
                for a, c in poly.terms.items():
                    product = self._product(a, member)
                    add_terms(terms, ((m, c * x) for m, x in product.terms.items()))
            cached = RingElement(source, field, False, terms)
            self._mono_cache[mono] = cached
        return cached

    def _product(self, exponents: tuple[int, ...], member: int) -> RingElement:
        """theta^exponents * images[member], memoized."""
        key = (exponents, member)
        product = self._product_cache.get(key)
        if product is None:
            theta = parameter_monomial(self.ctx.sd.source, exponents, "theta",
                                       self.ctx.field)
            product = theta * self.images[member]
            self._product_cache[key] = product
        return product


def build_phi(ctx: TransferContext, sd_basis: CellBasis) -> Morphism:
    """The basis-transfer morphism: each member maps to its transferred monomial."""
    images = {m: ctx.member_image(m) for m in sd_basis.members}
    return Morphism(ctx, sd_basis, images)


def average(morphism: Morphism, group: Group) -> Morphism:
    """Group-average a morphism: the new image of each member b is
    (1/|G|) * sum over sigma of sigma applied to morphism(sigma^{-1} b)."""
    ctx = morphism.ctx
    if group.complex is not ctx.sd.source:
        raise ComplexMismatch("group acts on a different complex")
    field = ctx.field
    if not is_unit_integer(field, group.order):
        raise OrderNotInvertible(
            f"group order {group.order} is zero in {field}")
    scale = inverse(normal(group.order, field.p), field.p)
    images: dict[int, RingElement] = {}
    for member in morphism.basis.members:
        b = morphism.member_element(member)
        terms: dict[Mono, object] = {}
        for sigma in group:
            add_terms(terms, act(sigma, morphism.apply(
                act(sigma.inverse(), b))).terms.items())
        images[member] = RingElement(ctx.sd.source, field, False,
                                     terms).scale(scale)
    return Morphism(ctx, morphism.basis, images)


# -- verification -------------------------------------------------------------------


@dataclass
class MorphismReport:
    equivariant: bool
    isomorphism: bool
    failures: list[dict] = dc_field(default_factory=list)


def verify_map(apply_fn: Callable[[RingElement], RingElement],
               source: BooleanComplex, field: FieldSpec, group: Group,
               degree_bound: int) -> MorphismReport:
    """Property-check a linear map from the subdivision's ring to the face ring.

    Each degree up to the bound applies the map once to every standard
    monomial.  Equivariance is checked on the group's generators, by lookup:
    an automorphism sends a standard monomial m to the standard monomial
    sigma.m of the same degree, so the check compares the image already
    computed for sigma.m with sigma applied to the image of m.  For a linear
    map, passing on the generators is passing on every group element.  The
    isomorphism check materializes the degreewise matrices and tests
    nonsingularity.  This is evidence up to the bound, not a proof.
    """
    failures: list[dict] = []
    equivariant = True
    isomorphism = True
    for d in range(degree_bound + 1):
        monos = graded_monomials(source, degree=d)
        images: dict[Mono, RingElement] = {}
        for mono in monos:
            f = RingElement(source, field, True, {mono: 1})
            images[mono] = apply_fn(f)
        for sigma in group.generators:
            for mono in monos:
                moved = canonical_mono(source, ((sigma(g), e) for g, e in mono))
                if images[moved] != act(sigma, images[mono]):
                    equivariant = False
                    failures.append({
                        "kind": "equivariance", "degree": d,
                        "monomial": [[source.ids[g], e] for g, e in mono]})
                    break
        index = {m: i for i, m in enumerate(monos)}
        span = RowSpan(field, len(monos))
        rank = 0
        for mono in monos:
            row = {index[m]: c for m, c in images[mono].terms.items()}
            if span.insert(mono, row) is None:
                rank += 1
        if rank != len(monos):
            isomorphism = False
            failures.append({"kind": "isomorphism", "degree": d,
                             "rank": rank, "dimension": len(monos)})
    return MorphismReport(equivariant, isomorphism, failures)


def verify_morphism(morphism: Morphism, group: Group,
                    degree_bound: int | None = None) -> MorphismReport:
    source = morphism.ctx.sd.source
    if degree_bound is None:
        n = source.n
        degree_bound = n * (n + 1)
    return verify_map(morphism.apply, source, morphism.ctx.field, group,
                      degree_bound)


# -- the odd cross-term computation ---------------------------------------------------


@dataclass
class CrossTermWitness:
    monomial: Mono
    coefficient: int
    shape: Partition
    staircase: Partition
    strictly_dominated: bool

    @property
    def odd(self) -> bool:
        return self.coefficient % 2 == 1


def simplex_complex(d: int) -> BooleanComplex:
    return build_from_facets([[str(i) for i in range(d + 1)]])


def odd_cross_term_witness(d: int) -> CrossTermWitness:
    """Expand the product of the first d rank-row parameters on the d-simplex
    and extract the coefficient of the distinguished non-staircase term.

    The term is the product of the bottom triangle with the full prefix
    faces; its coefficient is odd (it equals 3), which obstructs equivariant
    averaging in characteristic two.
    """
    if d < 2:
        raise InputError("d must be at least 2")
    complex = simplex_complex(d)
    field = FieldSpec.rational()
    product = RingElement.one(complex, field)
    for j in range(1, d + 1):
        product = product * rank_row_parameter(complex, j, field)
    triangle = face_id_of_vertex_set([str(i) for i in range(3)])
    support = [(complex.resolve(triangle), 1)]
    for i in range(2, d):
        prefix = face_id_of_vertex_set([str(k) for k in range(i + 1)])
        support.append((complex.resolve(prefix), 1))
    mono = canonical_mono(complex, support)
    coeff = product.terms.get(mono, 0)
    shape = mono_shape(complex, mono)
    staircase = Partition(range(d, 0, -1))
    witness = CrossTermWitness(mono, coeff, shape, staircase,
                               strictly_dominates(staircase, shape))
    if not witness.odd:
        raise DomainError(
            f"the distinguished cross-term coefficient {coeff} is not odd")
    return witness
