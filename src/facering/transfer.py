"""Transfer between the subdivision's ring and the face ring.

Both rings share the multichain monomial basis over the original face poset,
so the transfer map is the identity on monomials and only switches the
presentation (discrete vs straightening).  The context also converts
elements of the subdivision's ring one way, from that multichain form to
the cell form on the subdivision complex itself, where chains become single
generators; the cell form is what the basis machinery consumes.  The
context holds no field: elements carry theirs, and the descent works in the
cell basis's.

``express_on_transferred_basis`` realizes the constructive half of basis
transfer: repeatedly represent the pulled-back remainder on the subdivision
basis, push the parameter coefficients to the face ring, and subtract; each
pass strictly lowers the remainder's shapes in dominance order, so the
passes are at most the partitions of the remainder's degrees into at most n
parts (shapes of length-n exponent vectors), plus one.  Each sum
c_a theta^a * x_chain is formed by the face ring's Horner evaluator
(:func:`facering.face_ring.evaluate_parameters`), one memoized theta_j step
at a time, so no theta^a is expanded and no memo grows with the exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .coeff import FieldSpec
from .complexes import SdMap
from .errors import BasisInvalid, ComplexMismatch, InputError
from .face_ring import (Mono, ParameterPolynomial, RingElement, add_terms,
                        evaluate_parameters, mono_degree)
from .cm_basis import CellBasis, represent_on_cell_basis
from .partitions import count_partitions


@dataclass(frozen=True)
class TransferContext:
    """The subdivision dictionary: Garsia's transfer both ways, and the
    cell form of the subdivision's ring."""

    sd: SdMap

    def garsia(self, element: RingElement) -> RingElement:
        """Subdivision ring -> face ring: identity on standard monomials."""
        if element.complex is not self.sd.source or not element.discrete:
            raise ComplexMismatch("expected an element of the subdivision ring")
        return RingElement._canonical(self.sd.source, element.field, False,
                                      dict(element.terms))

    def garsia_inverse(self, element: RingElement) -> RingElement:
        """Face ring -> subdivision ring: identity on standard monomials."""
        if element.complex is not self.sd.source or element.discrete:
            raise ComplexMismatch("expected an element of the face ring")
        return RingElement._canonical(self.sd.source, element.field, True,
                                      dict(element.terms))

    def cell_mono_of_multichain(self, mono: Mono) -> Mono:
        """Rewrite a multichain as a product of subdivision-complex generators.

        The level sets of the exponent profile are nested chains; equal
        consecutive levels merge into an exponent.
        """
        if not mono:
            return ()
        max_e = max(e for _, e in mono)
        levels = [tuple(f for f, e in mono if e >= t)
                  for t in range(1, max_e + 1)]
        out = []
        for chain in levels:
            face = self.sd.face_of_chain.get(chain)
            if face is None:
                raise InputError("support is not a chain of the source poset")
            if out and out[-1][0] == face:
                out[-1] = (face, out[-1][1] + 1)
            else:
                out.append((face, 1))
        return tuple(sorted(out, key=lambda fe: len(self.sd.chain_of[fe[0]])))

    def to_cell_form(self, element: RingElement) -> RingElement:
        """Subdivision ring in multichain form -> same ring on the subdivision
        complex's own generators."""
        if element.complex is not self.sd.source or not element.discrete:
            raise ComplexMismatch("expected an element of the subdivision ring")
        terms = {self.cell_mono_of_multichain(m): c
                 for m, c in element.terms.items()}
        return RingElement._canonical(self.sd.target, element.field, False,
                                      terms)

    def member_image(self, member: int, field: FieldSpec) -> RingElement:
        """Transfer of a basis member's generator into the face ring over
        ``field``: the squarefree monomial on the member's chain."""
        chain = self.sd.chain_of[member]
        mono = tuple((f, 1) for f in chain)
        return RingElement.monomial(self.sd.source, field, mono)


@dataclass
class TransferRepresentation:
    """Parameter coefficients over the transferred basis, with the remainder
    after each descent pass (the last one is zero)."""

    coefficients: dict[int, ParameterPolynomial]
    remainders: list[RingElement] = dc_field(default_factory=list)


def express_on_transferred_basis(ctx: TransferContext, sd_basis: CellBasis,
                                 element: RingElement) -> TransferRepresentation:
    """Write a face-ring element over the parameter subring on the transferred
    basis by dominance descent.

    Each pass pulls the remainder back to the subdivision ring, represents it
    on the cell basis there, re-evaluates the same parameter polynomials with
    the face-ring parameters against the transferred members, and subtracts.
    Every term of the new remainder has strictly dominated shape, and a
    shape has at most n parts, so the pass count is bounded by the number
    of partitions of the degrees involved into at most n parts; exceeding
    the bound means the proposed basis is broken.  The field is the
    basis's: an element over another one fails (``FieldMismatch``) on the
    first pass.
    """
    if element.complex is not ctx.sd.source or element.discrete:
        raise ComplexMismatch("expected an element of the face ring")
    if sd_basis.complex is not ctx.sd.target:
        raise ComplexMismatch("basis must live on the subdivision complex")
    field = sd_basis.field
    totals: dict[int, dict] = {b: {} for b in sd_basis.members}
    remainders: list[RingElement] = []
    cap = 1 + sum(count_partitions(d, ctx.sd.source.n) for d in
                  {mono_degree(ctx.sd.source, m) for m in element.terms})
    remainder = element
    passes = 0
    while not remainder.is_zero:
        passes += 1
        if passes > cap:
            raise BasisInvalid("descent failed to terminate; the proposed "
                               "basis does not span")
        cell = ctx.to_cell_form(ctx.garsia_inverse(remainder))
        rep = represent_on_cell_basis(sd_basis, cell)
        evaluated: dict[Mono, object] = {}
        for member, poly in rep.items():
            add_terms(totals[member], poly.terms.items())
            if not poly.is_zero:
                add_terms(evaluated, evaluate_parameters(
                    ctx.member_image(member, field), poly.terms).terms.items())
        remainder = remainder - RingElement(ctx.sd.source, field, False, evaluated)
        remainders.append(remainder)
    n = sd_basis.balancing.n
    return TransferRepresentation(
        {b: ParameterPolynomial(n, field, t) for b, t in totals.items()},
        remainders)
