
import pytest

from facering import (
    RingElement,
    act,
    average,
    build_phi,
    close_group,
    compute_basis,
    graded_monomials,
    odd_cross_term_witness,
    rank_row_parameter,
    straighten,
)
from facering.equivariant import (
    automorphism_from_face_map,
    automorphism_from_vertex_map,
    simplex_complex,
    verify_map,
)
from facering.errors import (
    DomainError,
    GroupTooLarge,
    NotAnAutomorphism,
    OrderNotInvertible,
)
from facering.face_ring import canonical_mono, mono_shape
from facering.partitions import Partition, dominates, strictly_dominates
from facering.transfer import TransferContext

from conftest import GF2, GF5, RATIONAL


@pytest.fixture(scope="module")
def edge_swap(double_edge):
    return automorphism_from_face_map(double_edge,
                                      {"alpha": "beta", "beta": "alpha"})


@pytest.fixture(scope="module")
def swap_group(double_edge, edge_swap):
    return close_group(double_edge, [edge_swap])


@pytest.fixture(scope="module")
def s3_group(triangle):
    g1 = automorphism_from_vertex_map(triangle, {"0": "1", "1": "0"})
    g2 = automorphism_from_vertex_map(triangle, {"0": "1", "1": "2", "2": "0"})
    return close_group(triangle, [g1, g2])


def disc(c, pairs, coeff=1):
    return straighten(c, pairs, RATIONAL, coeff, True)


def asl(c, pairs, coeff=1, field=RATIONAL):
    return straighten(c, pairs, field, coeff, False)


# -- groups -------------------------------------------------------------------------


def test_close_group_orders(double_edge, edge_swap, s3_group):
    assert close_group(double_edge, [edge_swap]).order == 2
    assert s3_group.order == 6
    assert close_group(double_edge, []).order == 1


def test_group_closure_properties(s3_group):
    elements = set(a.perm for a in s3_group)
    for a in s3_group:
        assert a.inverse().perm in elements
        for b in s3_group:
            assert a.compose(b).perm in elements


def test_group_cap(triangle):
    g1 = automorphism_from_vertex_map(triangle, {"0": "1", "1": "0"})
    g2 = automorphism_from_vertex_map(triangle, {"0": "1", "1": "2", "2": "0"})
    with pytest.raises(GroupTooLarge):
        close_group(triangle, [g1, g2], cap=3)


def test_not_an_automorphism(double_edge, triangle):
    with pytest.raises(NotAnAutomorphism):
        automorphism_from_face_map(double_edge, {"v": "alpha", "alpha": "v"})
    # a doubled edge cannot be described by a vertex map
    with pytest.raises(NotAnAutomorphism):
        automorphism_from_vertex_map(double_edge, {"v": "w", "w": "v"})
    with pytest.raises(NotAnAutomorphism):
        automorphism_from_face_map(triangle, {"0": "1"})  # not a bijection


def test_act_examples(double_edge, edge_swap):
    f = asl(double_edge, [("w", 2), ("beta", 1)])
    assert act(edge_swap, f) == asl(double_edge, [("w", 2), ("alpha", 1)])
    for j in (1, 2):
        theta = rank_row_parameter(double_edge, j, RATIONAL)
        assert act(edge_swap, theta) == theta


def test_act_commutes_with_straightening(triangle):
    sigma = automorphism_from_vertex_map(triangle, {"0": "1", "1": "0"})
    raw = [("0", 1), ("1", 2), ("2", 3)]
    image_raw = [("1", 1), ("0", 2), ("2", 3)]
    assert act(sigma, asl(triangle, raw)) == asl(triangle, image_raw)


def test_induced_subdivision_action(double_edge, double_edge_sd, edge_swap):
    sd_sigma = edge_swap.induce_on_subdivision(double_edge_sd)
    target = double_edge_sd.target
    assert target.ids[sd_sigma(target.resolve("v_alpha"))] == "v_beta"
    assert target.ids[sd_sigma(target.resolve("w"))] == "w"


# -- morphisms ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def de_phi(double_edge_sd):
    ctx = TransferContext(double_edge_sd, RATIONAL)
    basis = compute_basis(double_edge_sd.target, double_edge_sd.balancing,
                          RATIONAL).basis
    return build_phi(ctx, basis)


def test_phi_images_are_transferred_members(double_edge, double_edge_sd, de_phi):
    target = double_edge_sd.target
    expected = {"": RingElement.one(double_edge, RATIONAL),
                "v": asl(double_edge, [("v", 1)]),
                "alpha": asl(double_edge, [("alpha", 1)]),
                "v_alpha": asl(double_edge, [("v", 1), ("alpha", 1)])}
    assert {target.ids[m]: e for m, e in de_phi.images.items()} == expected


def test_phi_on_parameter_multiple(double_edge, de_phi):
    gamma = rank_row_parameter(double_edge, 1, RATIONAL, discrete=True)
    gamma2 = rank_row_parameter(double_edge, 2, RATIONAL, discrete=True)
    theta = rank_row_parameter(double_edge, 1, RATIONAL)
    theta2 = rank_row_parameter(double_edge, 2, RATIONAL)
    assert de_phi.apply(gamma * gamma * gamma2) == theta * theta * theta2


def test_phi_golden_value(double_edge, de_phi):
    got = de_phi.apply(disc(double_edge, [("w", 2), ("beta", 1)]))
    assert got == asl(double_edge, [("w", 2), ("beta", 1)]) \
        + asl(double_edge, [("beta", 2)])


def test_phi_member_and_zero(double_edge, de_phi):
    for member in de_phi.basis.members:
        assert de_phi.apply(de_phi.member_element(member)) \
            == de_phi.images[member]
    assert de_phi.apply(RingElement.zero(double_edge, RATIONAL, True)).is_zero


def test_phi_equivariant_in_top_shape(double_edge, swap_group, de_phi,
                                      triangle, triangle_sd, s3_group):
    tri_ctx = TransferContext(triangle_sd, RATIONAL)
    tri_phi = build_phi(tri_ctx, compute_basis(
        triangle_sd.target, triangle_sd.balancing, RATIONAL).basis)
    for c, group, phi in [(double_edge, swap_group, de_phi),
                          (triangle, s3_group, tri_phi)]:
        for d in range(1, 5):
            for m in graded_monomials(c, degree=d):
                lam = mono_shape(c, m)
                f = RingElement(c, RATIONAL, True, {m: 1})
                for sigma in group:
                    defect = act(sigma, phi.apply(f)) - phi.apply(act(sigma, f))
                    for t in defect.terms:
                        assert strictly_dominates(lam, mono_shape(c, t))


def test_garsia_is_fully_equivariant(double_edge, double_edge_sd, swap_group):
    ctx = TransferContext(double_edge_sd, RATIONAL)
    for d in range(7):
        for m in graded_monomials(double_edge, degree=d):
            f = RingElement(double_edge, RATIONAL, True, {m: 1})
            for sigma in swap_group:
                assert ctx.garsia(act(sigma, f)) == act(sigma, ctx.garsia(f))


def test_average_with_trivial_group(double_edge, de_phi):
    averaged = average(de_phi, close_group(double_edge, []))
    assert averaged.images == de_phi.images


def test_average_obstructed_mod_two(triangle, triangle_sd, s3_group):
    ctx = TransferContext(triangle_sd, GF2)
    basis = compute_basis(triangle_sd.target, triangle_sd.balancing, GF2).basis
    phi = build_phi(ctx, basis)
    with pytest.raises(OrderNotInvertible):
        average(phi, s3_group)


def test_average_is_shape_filtered(double_edge, swap_group, de_phi):
    averaged = average(de_phi, swap_group)
    for d in range(7):
        for m in graded_monomials(double_edge, degree=d):
            lam = mono_shape(double_edge, m)
            f = RingElement(double_edge, RATIONAL, True, {m: 1})
            for t in averaged.apply(f).terms:
                assert dominates(lam, mono_shape(double_edge, t))


def test_average_agrees_with_transfer_in_top_shape(double_edge, double_edge_sd,
                                                   swap_group, de_phi):
    ctx = TransferContext(double_edge_sd, RATIONAL)
    averaged = average(de_phi, swap_group)
    for d in range(7):
        for m in graded_monomials(double_edge, degree=d):
            lam = mono_shape(double_edge, m)
            f = RingElement(double_edge, RATIONAL, True, {m: 1})
            top_avg = averaged.apply(f).shape_component(lam)
            top_phi = de_phi.apply(f).shape_component(lam)
            top_garsia = ctx.garsia(f).shape_component(lam)
            assert top_avg == top_phi == top_garsia


def test_full_pipeline_on_tetrahedron():
    # beyond the small goldens: the full symmetric group on four points, over
    # a field where its order is invertible
    from facering import (FieldSpec, average, barycentric_subdivision,
                          build_phi, close_group, compute_basis,
                          verify_morphism)
    c = simplex_complex(3)
    sd = barycentric_subdivision(c)
    field = FieldSpec.gf(5)
    verdict = compute_basis(sd.target, sd.balancing, field)
    assert verdict.cohen_macaulay and len(verdict.basis.members) == 24
    group = close_group(c, [
        automorphism_from_vertex_map(c, {"0": "1", "1": "0"}),
        automorphism_from_vertex_map(c, {"0": "1", "1": "2", "2": "3", "3": "0"})])
    assert group.order == 24
    averaged = average(build_phi(TransferContext(sd, field), verdict.basis),
                       group)
    report = verify_morphism(averaged, group, degree_bound=5)
    assert report.equivariant and report.isomorphism


def test_verify_identity_map(double_edge, double_edge_sd, swap_group):
    ctx = TransferContext(double_edge_sd, RATIONAL)
    report = verify_map(ctx.garsia, double_edge, RATIONAL, swap_group, 6)
    assert report.equivariant and report.isomorphism and not report.failures


def test_hilbert_dimensions_agree(double_edge, double_edge_sd, triangle,
                                  triangle_sd):
    # count the subdivision ring's monomials on the subdivision complex itself,
    # weighting each cell by the sum of its labels, against the face ring
    for c, sd in [(double_edge, double_edge_sd), (triangle, triangle_sd)]:
        bal = sd.balancing
        weights = {f: sum(bal.label_set(f)) for f in range(1, len(sd.target))}
        for d in range(7):
            lhs = len(graded_monomials(c, degree=d))
            rhs = len(graded_monomials(sd.target, degree=d,
                                       face_degree=lambda f: weights[f]))
            assert lhs == rhs


# -- the distinguished odd cross-term --------------------------------------------------


def test_cross_term_d2():
    w = odd_cross_term_witness(2)
    c = simplex_complex(2)
    assert w.monomial == canonical_mono(c, [(c.resolve("0,1,2"), 1)])
    assert w.coefficient == 3
    assert w.shape == Partition((1, 1, 1))
    assert w.staircase == Partition((2, 1))
    assert w.strictly_dominated and w.odd


def test_cross_term_d3():
    w = odd_cross_term_witness(3)
    c = simplex_complex(3)
    assert w.monomial == canonical_mono(c, [(c.resolve("0,1,2"), 2)])
    assert w.coefficient == 3
    assert w.shape == Partition((2, 2, 2))
    assert w.strictly_dominated and w.odd


def test_cross_term_d4():
    w = odd_cross_term_witness(4)
    c = simplex_complex(4)
    assert w.monomial == canonical_mono(
        c, [(c.resolve("0,1,2"), 2), (c.resolve("0,1,2,3"), 1)])
    assert w.coefficient == 3
    assert w.shape == Partition((3, 3, 3, 1))
    assert w.strictly_dominated and w.odd


def test_cross_term_even_coefficient_raises(monkeypatch):
    # doubling every parameter makes the coefficient 3 * 2^d; the parity check
    # must raise rather than assert, so that it survives python -O
    import facering.equivariant as eq

    original = eq.rank_row_parameter

    def doubled(complex, j, field):
        return original(complex, j, field) * 2

    monkeypatch.setattr(eq, "rank_row_parameter", doubled)
    with pytest.raises(DomainError, match="not odd"):
        odd_cross_term_witness(2)


def test_theta_product_staircase_terms_d2():
    # the stacked-up terms of the parameter product are exactly the staircase
    # shape component, each with coefficient one
    c = simplex_complex(2)
    product = rank_row_parameter(c, 1, RATIONAL) * rank_row_parameter(c, 2, RATIONAL)
    staircase = Partition((2, 1))
    expected = set(graded_monomials(c, shape=staircase))
    got = {m for m in product.terms
           if mono_shape(c, m) == staircase}
    assert got == expected
    for m in got:
        assert product.terms[m] == 1


# -- verification on generators ----------------------------------------------------


def reference_equivariant(apply_fn, source, field, group, bound):
    """Equivariance checked the long way: apply the map to sigma.m for every
    group element sigma; returns the verdict and the first failing degree."""
    for d in range(bound + 1):
        for m in graded_monomials(source, degree=d):
            f = RingElement(source, field, True, {m: 1})
            image = apply_fn(f)
            for sigma in group:
                if apply_fn(act(sigma, f)) != act(sigma, image):
                    return False, d
    return True, None


def tetrahedron_with_s4():
    from facering import barycentric_subdivision
    c = simplex_complex(3)
    group = close_group(c, [
        automorphism_from_vertex_map(c, {"0": "1", "1": "0"}),
        automorphism_from_vertex_map(c, {"0": "1", "1": "2", "2": "3", "3": "0"})])
    return c, barycentric_subdivision(c), group


def test_generator_check_matches_every_element_check(triangle, triangle_sd,
                                                     s3_group):
    from facering import verify_morphism
    tetrahedron, tetrahedron_sd, s4_group = tetrahedron_with_s4()
    for c, sd, group in [(triangle, triangle_sd, s3_group),
                         (tetrahedron, tetrahedron_sd, s4_group)]:
        assert 0 < len(group.generators) < group.order
        basis = compute_basis(sd.target, sd.balancing, RATIONAL).basis
        phi = build_phi(TransferContext(sd, RATIONAL), basis)
        for morphism, expected in [(average(phi, group), True), (phi, False)]:
            report = verify_morphism(morphism, group, degree_bound=4)
            verdict, first = reference_equivariant(morphism.apply, c, RATIONAL,
                                                   group, 4)
            assert report.equivariant == verdict == expected
            failing = [f["degree"] for f in report.failures
                       if f["kind"] == "equivariance"]
            assert (failing[0] if failing else None) == first
            if not expected:
                assert first == 3
                # at most one entry per failing generator per degree
                for d in set(failing):
                    assert failing.count(d) <= len(group.generators)


def test_generators_of_trivial_group(double_edge, edge_swap):
    assert close_group(double_edge, []).generators == ()
    identity = edge_swap.compose(edge_swap)
    assert close_group(double_edge, [identity]).generators == ()
    assert close_group(double_edge, [edge_swap, edge_swap]).generators \
        == (edge_swap,)


@pytest.mark.parametrize("field", [RATIONAL, GF5], ids=["rational", "gf:5"])
def test_product_memo_matches_reference(triangle, triangle_sd, s3_group, field):
    from facering.cm_basis import represent_on_cell_basis
    ctx = TransferContext(triangle_sd, field)
    basis = compute_basis(triangle_sd.target, triangle_sd.balancing, field).basis
    morphism = average(build_phi(ctx, basis), s3_group)
    bound = 0
    for d in range(7):
        monos = graded_monomials(triangle, degree=d)
        bound += len(monos)
        for m in monos:
            f = RingElement(triangle, field, True, {m: 1})
            rep = represent_on_cell_basis(triangle_sd.target, basis.balancing,
                                          field, basis, ctx.to_cell_form(f))
            expected = RingElement.zero(triangle, field)
            for member, poly in rep.items():
                expected = expected + (poly.evaluate(triangle, "theta")
                                       * morphism.images[member])
            assert morphism.apply(f) == expected
        assert len(morphism._product_cache) <= bound
