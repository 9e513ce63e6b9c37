import itertools
import random
from fractions import Fraction

import pytest

from facering import (
    Partition,
    RingElement,
    barycentric_subdivision,
    compute_basis,
    graded_monomials,
    rank_row_parameter,
    straighten,
)
from facering.coeff import normal
from facering.errors import BasisInvalid, ComplexMismatch, FieldMismatch
from facering.face_ring import ParameterPolynomial, canonical_mono, mono_shape
from facering.linalg import RowSpan
from facering.partitions import strictly_dominates
from facering.transfer import (
    TransferContext,
    express_on_transferred_basis,
)

from conftest import GF5, RATIONAL


@pytest.fixture(scope="module")
def de_ctx(double_edge_sd):
    return TransferContext(double_edge_sd)


@pytest.fixture(scope="module")
def de_basis(double_edge_sd):
    return compute_basis(double_edge_sd.balancing, RATIONAL).basis


def disc(c, pairs, coeff=1):
    return straighten(c, pairs, RATIONAL, coeff, True)


def asl(c, pairs, coeff=1):
    return straighten(c, pairs, RATIONAL, coeff, False)


# -- the transfer map ------------------------------------------------------------


def test_garsia_monomial(double_edge, de_ctx):
    assert de_ctx.garsia(disc(double_edge, [("w", 2), ("beta", 1)])) \
        == asl(double_edge, [("w", 2), ("beta", 1)])
    one = RingElement.one(double_edge, RATIONAL, discrete=True)
    assert de_ctx.garsia(one) == RingElement.one(double_edge, RATIONAL)


def test_garsia_of_gamma_squared(double_edge, de_ctx):
    gamma1 = rank_row_parameter(double_edge, 1, RATIONAL, discrete=True)
    got = de_ctx.garsia(gamma1 * gamma1)
    # the squares survive; the cross-term vanished in the subdivision ring
    assert got == asl(double_edge, [("v", 2)]) + asl(double_edge, [("w", 2)])
    theta1 = rank_row_parameter(double_edge, 1, RATIONAL)
    assert got != theta1 * theta1


def test_garsia_inverse_examples(double_edge, de_ctx):
    assert de_ctx.garsia_inverse(asl(double_edge, [("w", 2), ("beta", 1)])) \
        == disc(double_edge, [("w", 2), ("beta", 1)])
    for j in (1, 2):
        theta = rank_row_parameter(double_edge, j, RATIONAL)
        gamma = rank_row_parameter(double_edge, j, RATIONAL, discrete=True)
        assert de_ctx.garsia_inverse(theta) == gamma
    zero = RingElement(double_edge, RATIONAL, False, {})
    assert de_ctx.garsia_inverse(zero).is_zero


def test_garsia_requires_matching_presentation(double_edge, de_ctx):
    with pytest.raises(ComplexMismatch):
        de_ctx.garsia(asl(double_edge, [("v", 1)]))
    with pytest.raises(ComplexMismatch):
        de_ctx.garsia_inverse(disc(double_edge, [("v", 1)]))


def test_garsia_preserves_shape_and_degree(double_edge, de_ctx):
    for d in range(7):
        for m in graded_monomials(double_edge, degree=d):
            f = RingElement(double_edge, RATIONAL, True, {m: 1})
            g = de_ctx.garsia(f)
            (g_mono,) = g.terms
            assert mono_shape(double_edge, g_mono) == mono_shape(double_edge, m)
            assert de_ctx.garsia_inverse(g) == f


def from_cell_form(sd, element):
    """Reference inverse of ``to_cell_form``: a subdivision face stands for
    the product of the faces of its chain."""
    return RingElement(sd.source, element.field, True, {
        canonical_mono(sd.source, ((f, e) for g, e in mono for f in sd.chain_of[g])): c
        for mono, c in element.terms.items()})


def test_cell_form_roundtrip(double_edge, de_ctx):
    for d in range(7):
        for m in graded_monomials(double_edge, degree=d):
            f = RingElement(double_edge, RATIONAL, True, {m: 1})
            cell = de_ctx.to_cell_form(f)
            assert len(cell.terms) == 1
            assert from_cell_form(de_ctx.sd, cell) == f


def test_homomorphism_in_top_shape(double_edge, de_ctx):
    # the transfer of a product differs from the product of transfers only in
    # strictly dominated shapes; exactly zero when the factors stack up
    monos = [m for d in range(1, 4) for m in graded_monomials(double_edge, degree=d)]
    for m1, m2 in itertools.product(monos, repeat=2):
        f1 = RingElement(double_edge, RATIONAL, True, {m1: 1})
        f2 = RingElement(double_edge, RATIONAL, True, {m2: 1})
        total = mono_shape(double_edge, m1) + mono_shape(double_edge, m2)
        defect = de_ctx.garsia(f1) * de_ctx.garsia(f2) - de_ctx.garsia(f1 * f2)
        support = {f for f, _ in m1} | {f for f, _ in m2}
        stacked = all(double_edge.comparable(a, b)
                      for a, b in itertools.combinations(support, 2))
        if stacked:
            assert defect.is_zero
        else:
            for m in defect.terms:
                assert strictly_dominates(total, mono_shape(double_edge, m))


# -- expressing elements on the transferred basis -----------------------------------


def member_ids(sd, basis):
    return [sd.target.ids[m] for m in basis.members]


def test_express_golden(double_edge, double_edge_sd, de_ctx, de_basis):
    g = asl(double_edge, [("w", 2), ("beta", 1)])
    result = express_on_transferred_basis(de_ctx, de_basis, g)
    names = {double_edge_sd.target.ids[m]: p
             for m, p in result.coefficients.items()}

    def poly(terms):
        return ParameterPolynomial(2, RATIONAL, terms)

    assert names[""] == poly({(2, 1): 1, (0, 2): -1})
    assert names["v"] == poly({(1, 1): -1})
    assert names["alpha"] == poly({(2, 0): -1, (0, 1): 1})
    assert names["v_alpha"] == poly({(1, 0): 1})
    # the first descent pass leaves exactly -x_beta^2, of shape (2,2)
    first = result.remainders[0]
    assert first == asl(double_edge, [("beta", 2)], coeff=-1)
    (m,) = first.terms
    assert mono_shape(double_edge, m) == Partition((2, 2))
    assert result.remainders[-1].is_zero


def test_express_member_image_is_trivial(double_edge_sd, de_ctx, de_basis):
    for member in de_basis.members:
        g = de_ctx.member_image(member, RATIONAL)
        result = express_on_transferred_basis(de_ctx, de_basis, g)
        for other, p in result.coefficients.items():
            if other == member:
                assert p == ParameterPolynomial(2, RATIONAL, {(0, 0): 1})
            else:
                assert p.is_zero


def _reevaluate(ctx, basis, coefficients):
    total = RingElement(ctx.sd.source, basis.field, False, {})
    for member, p in coefficients.items():
        if not p.is_zero:
            total = total + p.evaluate(ctx.sd.source) \
                * ctx.member_image(member, basis.field)
    return total


def test_express_roundtrip_random(double_edge, de_ctx, de_basis,
                                  triangle, triangle_sd):
    rng = random.Random(99)
    tri_ctx = TransferContext(triangle_sd)
    tri_basis = compute_basis(triangle_sd.balancing, RATIONAL).basis
    for c, ctx, basis in [(double_edge, de_ctx, de_basis),
                          (triangle, tri_ctx, tri_basis)]:
        faces = list(range(1, len(c)))
        for _ in range(10):
            g = RingElement(c, RATIONAL, False, {})
            for _ in range(rng.randint(1, 3)):
                raw = [(rng.choice(faces), rng.randint(1, 2))
                       for _ in range(rng.randint(1, 2))]
                g = g + straighten(c, raw, RATIONAL, rng.randint(-4, 4))
            result = express_on_transferred_basis(ctx, basis, g)
            assert _reevaluate(ctx, basis, result.coefficients) == g


def test_transferred_basis_degreewise_independent(double_edge, de_ctx, de_basis):
    # no nonzero kernel vector in any degree component of the evaluation map
    images = {m: de_ctx.member_image(m, RATIONAL) for m in de_basis.members}
    deg = {m: sum(e * double_edge.rank[f] for f, e in next(iter(images[m].terms)))
           for m in de_basis.members}
    for d in range(7):
        columns = []
        for member in de_basis.members:
            slack = d - deg[member]
            if slack < 0:
                continue
            for exps in itertools.product(range(slack + 1), repeat=2):
                if exps[0] * 1 + exps[1] * 2 != slack:
                    continue
                poly = ParameterPolynomial(2, RATIONAL, {exps: 1})
                columns.append(poly.evaluate(double_edge)
                               * images[member])
        monos = graded_monomials(double_edge, degree=d)
        index = {m: i for i, m in enumerate(monos)}
        span = RowSpan(RATIONAL, len(monos))
        for tag, col in enumerate(columns):
            row = {index[m]: c for m, c in col.terms.items()}
            assert span.insert(tag, row) is None, \
                f"kernel vector in degree {d}"


def test_cell_form_is_a_ring_isomorphism(double_edge, de_ctx):
    # both presentations carry the same ring, so multiplying in the discrete
    # form and in the cell form must agree through the dictionary
    rng = random.Random(17)
    faces = list(range(1, len(double_edge)))
    for _ in range(30):
        raw1 = [(rng.choice(faces), rng.randint(1, 2))
                for _ in range(rng.randint(1, 2))]
        raw2 = [(rng.choice(faces), rng.randint(1, 2))
                for _ in range(rng.randint(1, 2))]
        f = disc(double_edge, raw1)
        g = disc(double_edge, raw2)
        direct = de_ctx.to_cell_form(f * g)
        through = de_ctx.to_cell_form(f) * de_ctx.to_cell_form(g)
        assert direct == through


def test_express_roundtrip_on_disk(disk):
    # three labels and a non-simplicial host with parallel edges
    sd = barycentric_subdivision(disk)
    ctx = TransferContext(sd)
    basis = compute_basis(sd.balancing, RATIONAL).basis
    rng = random.Random(31)
    faces = list(range(1, len(disk)))
    for _ in range(8):
        g = RingElement(disk, RATIONAL, False, {})
        for _ in range(rng.randint(1, 3)):
            raw = [(rng.choice(faces), rng.randint(1, 2))
                   for _ in range(rng.randint(1, 2))]
            g = g + straighten(disk, raw, RATIONAL, rng.randint(-4, 4))
        result = express_on_transferred_basis(ctx, basis, g)
        assert _reevaluate(ctx, basis, result.coefficients) == g


def test_express_over_prime_field(double_edge, double_edge_sd):
    from conftest import GF5
    ctx = TransferContext(double_edge_sd)
    basis = compute_basis(double_edge_sd.balancing, GF5).basis
    g = straighten(double_edge, [("w", 2), ("beta", 1)], GF5)
    result = express_on_transferred_basis(ctx, basis, g)
    total = RingElement(double_edge, GF5, False, {})
    for member, p in result.coefficients.items():
        if not p.is_zero:
            total = total + p.evaluate(double_edge) \
                * ctx.member_image(member, GF5)
    assert total == g
    names = {double_edge_sd.target.ids[m]: p
             for m, p in result.coefficients.items()}
    assert names["v"] == ParameterPolynomial(2, GF5, {
        (1, 1): -1})  # -1 is the residue 4


def test_express_detects_broken_basis(double_edge, double_edge_sd, de_ctx):
    from facering.cm_basis import CellBasis
    bal = double_edge_sd.balancing
    good = compute_basis(bal, RATIONAL).basis
    # drop a member: representation of some faces must now fail
    broken = CellBasis(bal, RATIONAL, good.members[:-1])
    g = asl(double_edge, [("w", 2), ("beta", 1)])
    with pytest.raises(BasisInvalid):
        express_on_transferred_basis(de_ctx, broken, g)


def test_express_works_in_the_basis_field(double_edge, de_ctx, de_basis):
    # the basis is over Q: an element over GF(5) is refused by the first
    # representation, before any pass is evaluated and subtracted
    g = straighten(double_edge, [("w", 2), ("beta", 1)], GF5)
    with pytest.raises(FieldMismatch, match="element and basis"):
        express_on_transferred_basis(de_ctx, de_basis, g)


def assert_canonical(element):
    p = element.field.p
    for c in element.terms.values():
        y = normal(c, p)
        assert y and y == c and type(y) is type(c)


@pytest.mark.parametrize("field", [RATIONAL, GF5], ids=["rational", "gf:5"])
def test_canonical_copies_match_normalizing_constructor(double_edge, triangle,
                                                        field):
    # garsia, garsia_inverse and to_cell_form move canonical coefficients
    # without re-normalizing them; the results equal normalized ones
    rng = random.Random(5)
    for c in (double_edge, triangle):
        ctx = TransferContext(barycentric_subdivision(c))
        monos = [m for d in range(5) for m in graded_monomials(c, degree=d)]
        for _ in range(20):
            terms = {m: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for m in rng.sample(monos, 6)}
            sub = RingElement(c, field, True, terms)
            face = RingElement(c, field, False, terms)
            cell_terms = {ctx.cell_mono_of_multichain(m): x
                          for m, x in sub.terms.items()}
            for got, expected in [
                    (ctx.garsia(sub), RingElement(c, field, False, terms)),
                    (ctx.garsia_inverse(face), RingElement(c, field, True, terms)),
                    (ctx.to_cell_form(sub),
                     RingElement(ctx.sd.target, field, False, cell_terms))]:
                assert got == expected
                assert_canonical(got)
