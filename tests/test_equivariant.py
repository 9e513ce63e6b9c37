
import itertools
import math

import pytest
from hypothesis import example, given, strategies as st

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
    GROUP_ORDER_CAP,
    Morphism,
    automorphism_from_face_map,
    automorphism_from_vertex_map,
    theta_product_count,
    verify_map,
    verify_morphism,
)
from facering.errors import (
    ComplexMismatch,
    DomainError,
    FieldMismatch,
    GroupTooLarge,
    InputError,
    NotAnAutomorphism,
    OrderNotInvertible,
    UnknownFace,
)
from facering.coeff import FieldSpec
from facering.face_ring import (
    add_terms,
    canonical_mono,
    evaluate_parameters,
    mono_degree,
    mono_shape,
    parameter_monomial,
)
from facering.partitions import Partition, dominates, strictly_dominates
from facering.transfer import TransferContext

from conftest import (GF2, GF5, RATIONAL, monomials_of_shape,
                      parameter_products, simplex_complex)


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


def test_group_cap():
    # S_7 (order 5040) stays within GROUP_ORDER_CAP; S_8 (order 40320) does not
    def symmetric_group_generators(d):
        c = simplex_complex(d)
        cycle = {str(i): str((i + 1) % (d + 1)) for i in range(d + 1)}
        return c, [automorphism_from_vertex_map(c, {"0": "1", "1": "0"}),
                   automorphism_from_vertex_map(c, cycle)]

    assert close_group(*symmetric_group_generators(6)).order == 5040
    with pytest.raises(GroupTooLarge,
                       match=f"^group exceeds cap {GROUP_ORDER_CAP}$"):
        close_group(*symmetric_group_generators(7))


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


# -- morphisms ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def de_phi(double_edge_sd):
    ctx = TransferContext(double_edge_sd)
    basis = compute_basis(double_edge_sd.balancing, RATIONAL).basis
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
        chain = de_phi.ctx.sd.chain_of[member]
        element = RingElement(double_edge, RATIONAL, True,
                              {tuple((f, 1) for f in chain): 1})
        assert de_phi.apply(element) == de_phi.images[member]
    assert de_phi.apply(RingElement(double_edge, RATIONAL, True, {})).is_zero


def test_morphism_needs_a_basis_on_the_subdivision(triangle_sd, de_phi):
    # a basis of another subdivision would be read at the wrong member indices
    ctx = TransferContext(triangle_sd)
    with pytest.raises(ComplexMismatch, match="subdivision complex"):
        build_phi(ctx, de_phi.basis)
    with pytest.raises(ComplexMismatch, match="subdivision complex"):
        Morphism(ctx, de_phi.basis, de_phi.images)


def test_morphism_of_images_that_are_not_shape_filtered(triangle, triangle_sd,
                                                       s3_group):
    # phi(b) + theta_1^deg(b) (0 for the empty member) defines a Morphism,
    # though 9 of its image terms are not shape-dominated by their member
    ctx = TransferContext(triangle_sd)
    phi = build_phi(ctx, compute_basis(triangle_sd.balancing, RATIONAL).basis)
    images, not_dominated = {}, 0
    for b, image in phi.images.items():
        chain = tuple((f, 1) for f in ctx.sd.chain_of[b])
        deg = mono_degree(triangle, chain)
        images[b] = image + evaluate_parameters(
            RingElement.one(triangle, RATIONAL), {(deg, 0, 0): 1} if deg else {})
        not_dominated += sum(not dominates(mono_shape(triangle, chain),
                                           mono_shape(triangle, t))
                             for t in images[b].terms)
    assert not_dominated == 9
    psi = Morphism(ctx, phi.basis, images)
    # parameter-linear: Psi(gamma^a * y) = theta^a * Psi(y)
    for d in range(4):
        for m in graded_monomials(triangle, degree=d):
            y = RingElement(triangle, RATIONAL, True, {m: 1})
            for a in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 0)]:
                assert psi.apply(parameter_products(y, {a: 1})) \
                    == evaluate_parameters(psi.apply(y), {a: 1})
    report = verify_morphism(psi, s3_group, 4)
    assert not report.equivariant and report.isomorphism
    first = next(f["degree"] for f in report.failures
                 if f["kind"] == "equivariance")
    assert reference_equivariant(psi.apply, triangle, RATIONAL, s3_group, 4) \
        == (report.equivariant, first) == (False, 1)


@pytest.mark.parametrize("case, error", [
    ("missing member", InputError),
    ("image over gf:5", FieldMismatch),
    ("image in the discrete presentation", ComplexMismatch),
    ("image on another complex", ComplexMismatch),
    ("apply over gf:5", FieldMismatch),
])
def test_morphism_contract_errors(case, error, double_edge, triangle, de_phi):
    ctx, images = de_phi.ctx, dict(de_phi.images)
    top = max(images, key=lambda b: len(ctx.sd.chain_of[b]))
    if case == "missing member":
        del images[top]
    elif case == "image over gf:5":
        images[top] = RingElement(double_edge, GF5, False, images[top].terms)
    elif case == "image in the discrete presentation":
        images[top] = ctx.garsia_inverse(images[top])
    elif case == "image on another complex":
        images[top] = RingElement.one(triangle, RATIONAL)
    with pytest.raises(InputError) as info:
        if case == "apply over gf:5":
            de_phi.apply(straighten(double_edge, [("v", 1)], GF5, 1, True))
        else:
            Morphism(ctx, de_phi.basis, images)
    assert info.type is error


def test_phi_equivariant_in_top_shape(double_edge, swap_group, de_phi,
                                      triangle, triangle_sd, s3_group):
    tri_ctx = TransferContext(triangle_sd)
    tri_phi = build_phi(tri_ctx, compute_basis(triangle_sd.balancing, RATIONAL).basis)
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
    ctx = TransferContext(double_edge_sd)
    for d in range(7):
        for m in graded_monomials(double_edge, degree=d):
            f = RingElement(double_edge, RATIONAL, True, {m: 1})
            for sigma in swap_group:
                assert ctx.garsia(act(sigma, f)) == act(sigma, ctx.garsia(f))


def test_average_with_trivial_group(double_edge, de_phi):
    averaged = average(de_phi, close_group(double_edge, []))
    assert averaged.images == de_phi.images


def test_average_obstructed_mod_two(triangle, triangle_sd, s3_group):
    ctx = TransferContext(triangle_sd)
    basis = compute_basis(triangle_sd.balancing, GF2).basis
    phi = build_phi(ctx, basis)
    with pytest.raises(OrderNotInvertible):
        average(phi, s3_group)


def test_average_is_shape_filtered(double_edge, swap_group, de_phi,
                                   triangle, triangle_sd, s3_group):
    # phi and its average send a monomial of shape lambda to terms of shapes
    # dominated by lambda; a Morphism in general need not
    tetrahedron, tetrahedron_sd, s4_group = tetrahedron_with_s4()
    cases = [(double_edge, swap_group, de_phi, 6)]
    for c, sd, group, bound in [(triangle, triangle_sd, s3_group, 5),
                                (tetrahedron, tetrahedron_sd, s4_group, 4)]:
        basis = compute_basis(sd.balancing, RATIONAL).basis
        cases.append((c, group, build_phi(TransferContext(sd), basis), bound))
    for c, group, phi, bound in cases:
        for morphism in (phi, average(phi, group)):
            for d in range(bound + 1):
                for m in graded_monomials(c, degree=d):
                    lam = mono_shape(c, m)
                    f = RingElement(c, RATIONAL, True, {m: 1})
                    for t in morphism.apply(f).terms:
                        assert dominates(lam, mono_shape(c, t))


def test_average_agrees_with_transfer_in_top_shape(double_edge, double_edge_sd,
                                                   swap_group, de_phi):
    ctx = TransferContext(double_edge_sd)
    averaged = average(de_phi, swap_group)
    for d in range(7):
        for m in graded_monomials(double_edge, degree=d):
            lam = mono_shape(double_edge, m)
            f = RingElement(double_edge, RATIONAL, True, {m: 1})
            top = lambda g: {t: x for t, x in g.terms.items()
                             if mono_shape(double_edge, t) == lam}
            assert top(averaged.apply(f)) == top(de_phi.apply(f)) \
                == top(ctx.garsia(f))


def test_full_pipeline_on_tetrahedron():
    # beyond the small goldens: the full symmetric group on four points, over
    # a field where its order is invertible
    from facering import (FieldSpec, average, barycentric_subdivision,
                          build_phi, close_group, compute_basis,
                          verify_morphism)
    c = simplex_complex(3)
    sd = barycentric_subdivision(c)
    field = FieldSpec.gf(5)
    verdict = compute_basis(sd.balancing, field)
    assert verdict.cohen_macaulay and len(verdict.basis.members) == 24
    group = close_group(c, [
        automorphism_from_vertex_map(c, {"0": "1", "1": "0"}),
        automorphism_from_vertex_map(c, {"0": "1", "1": "2", "2": "3", "3": "0"})])
    assert group.order == 24
    averaged = average(build_phi(TransferContext(sd), verdict.basis),
                       group)
    report = verify_morphism(averaged, group, degree_bound=5)
    assert report.equivariant and report.isomorphism


def test_verify_identity_map(double_edge, double_edge_sd, swap_group):
    ctx = TransferContext(double_edge_sd)
    report = verify_map(ctx.garsia, RATIONAL, swap_group, 6)
    assert report.equivariant and report.isomorphism and not report.failures


def test_verify_map_reports_singular_degrees(double_edge, swap_group):
    # the zero map is equivariant and singular in every degree
    report = verify_map(lambda f: RingElement(double_edge, RATIONAL, False, {}),
                        RATIONAL, swap_group, 2)
    assert report.equivariant and not report.isomorphism
    assert report.failures == [
        {"kind": "isomorphism", "degree": d, "rank": 0,
         "dimension": len(graded_monomials(double_edge, degree=d))}
        for d in range(3)]


def test_verify_morphism_default_bound(double_edge, de_phi, swap_group):
    # the default bound is n(n+1), 6 on the double edge: the zero morphism
    # fails in each degree 0..6
    zero = Morphism(de_phi.ctx, de_phi.basis,
                    {m: RingElement(double_edge, RATIONAL, False, {})
                     for m in de_phi.basis.members})
    report = verify_morphism(zero, swap_group)
    assert [f["degree"] for f in report.failures] == list(range(7))
    assert report == verify_morphism(zero, swap_group, 6)


def test_verify_map_rejects_a_map_that_changes_degree(triangle, triangle_sd,
                                                      s3_group):
    # a Morphism may send a member to an element of mixed degree, which
    # verify_map cannot check degree by degree
    ctx = TransferContext(triangle_sd)
    phi = build_phi(ctx, compute_basis(triangle_sd.balancing, RATIONAL).basis)
    images = dict(phi.images)
    top = max(images, key=lambda b: len(ctx.sd.chain_of[b]))
    images[top] = images[top] + RingElement.one(triangle, RATIONAL)
    psi = Morphism(ctx, phi.basis, images)
    with pytest.raises(InputError, match="does not preserve degree 3"):
        verify_morphism(psi, s3_group, 4)


def test_verify_map_rejects_negative_bound(double_edge, double_edge_sd,
                                          swap_group):
    ctx = TransferContext(double_edge_sd)
    with pytest.raises(InputError, match="degree bound"):
        verify_map(ctx.garsia, RATIONAL, swap_group, -1)


def test_group_document_names_failing_generator(double_edge):
    from facering.documents import group_from_document

    doc = {"generators": [{"map": {"alpha": "beta", "beta": "alpha"}},
                          {"map": {"v": "alpha", "alpha": "v"}}]}
    with pytest.raises(NotAnAutomorphism, match=r"^generator 1: "):
        group_from_document(double_edge, doc)


def test_group_document_names_generator_with_unknown_face(double_edge):
    from facering.documents import group_from_document

    doc = {"generators": [{"map": {"alpha": "beta", "beta": "alpha"}},
                          {"map": {"q": "v"}}]}
    with pytest.raises(UnknownFace, match=r"^generator 1: unknown face 'q'$"):
        group_from_document(double_edge, doc)


@pytest.mark.parametrize("vertex_map", [
    {"0,1": "0,1"}, {"0": "1", "1": "0", "0,1": "1,2"}, {"0": "0,1"}],
    ids=["edge to itself", "edge beside a transposition", "vertex to an edge"])
def test_vertex_map_names_only_vertices(triangle, vertex_map):
    # a face of higher rank in a vertex map is rejected, not ignored
    from facering.documents import group_from_document

    doc = {"generators": [{"vertex_map": vertex_map}]}
    with pytest.raises(NotAnAutomorphism) as info:
        group_from_document(triangle, doc)
    assert info.type is NotAnAutomorphism
    assert str(info.value) == ("generator 0: vertex map names '0,1', "
                               "which is not a vertex")


@pytest.mark.parametrize("case", ["triangle-S3", "tetrahedron-S4"])
def test_map_faces_matches_canonical_mono(case, triangle, s3_group):
    if case == "triangle-S3":
        c, group = triangle, s3_group
    else:
        c = simplex_complex(3)
        group = close_group(c, [
            automorphism_from_vertex_map(c, {"0": "1", "1": "0"}),
            automorphism_from_vertex_map(c, {"0": "1", "1": "2", "2": "3",
                                             "3": "0"})])
    assert group.order == math.factorial(c.n)
    monos = [m for d in range(5) for m in graded_monomials(c, degree=d)]
    for discrete in (False, True):
        element = RingElement(c, RATIONAL, discrete,
                              {m: i + 1 for i, m in enumerate(monos)})
        for sigma in group:
            reference = add_terms({}, (
                (canonical_mono(c, ((sigma.perm[f], e) for f, e in m)), x)
                for m, x in element.terms.items()))
            assert element.map_faces(sigma.perm).terms == reference


def test_hilbert_dimensions_agree(double_edge, double_edge_sd, triangle,
                                  triangle_sd):
    # count the subdivision ring's monomials on the subdivision complex itself,
    # weighting each cell by the sum of its labels, against the face ring; a
    # cell's rank is at most its label sum, so degrees 0..d hold every weight d
    for c, sd in [(double_edge, double_edge_sd), (triangle, triangle_sd)]:
        bal = sd.balancing
        weights = {f: sum(bal.label_sets[f]) for f in range(1, len(sd.target))}
        for d in range(7):
            lhs = len(graded_monomials(c, degree=d))
            rhs = sum(1 for k in range(d + 1)
                      for m in graded_monomials(sd.target, degree=k)
                      if sum(e * weights[f] for f, e in m) == d)
            assert lhs == rhs


# -- the distinguished odd cross-term --------------------------------------------------


def test_cross_term_d2():
    w = odd_cross_term_witness(2)
    assert w.monomial == (("0,1,2", 1),)
    assert w.coefficient == 3
    assert w.shape == Partition((1, 1, 1))
    assert w.staircase == Partition((2, 1))
    assert w.strictly_dominated and w.odd


def test_cross_term_d3():
    w = odd_cross_term_witness(3)
    assert w.monomial == (("0,1,2", 2),)
    assert w.coefficient == 3
    assert w.shape == Partition((2, 2, 2))
    assert w.strictly_dominated and w.odd


def test_cross_term_d4():
    w = odd_cross_term_witness(4)
    assert w.monomial == (("0,1,2", 2), ("0,1,2,3", 1))
    assert w.coefficient == 3
    assert w.shape == Partition((3, 3, 3, 1))
    assert w.strictly_dominated and w.odd


def test_cross_term_even_coefficient_raises(monkeypatch):
    # an even count (here 3 * 2) must raise rather than assert, so that the
    # parity check survives python -O
    import facering.equivariant as eq

    monkeypatch.setattr(eq, "theta_product_count", lambda rows, columns: 6)
    with pytest.raises(DomainError, match="not odd"):
        odd_cross_term_witness(2)


def vertex_multiplicities(c, mono):
    """How many factors of the chain contain each vertex of the simplex."""
    mu = dict.fromkeys(c.vertices(), 0)
    for f, e in mono:
        for v in c.vertices():
            if c.leq(v, f):
                mu[v] += e
    return list(mu.values())


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_theta_product_count_matches_expansion(d):
    # every term of the expanded product theta_1 ... theta_d, not only the
    # distinguished one; the coefficients sum to all choices of the S_j
    c = simplex_complex(d)
    product = RingElement.one(c, RATIONAL)
    for j in range(1, d + 1):
        product = product * rank_row_parameter(c, j, RATIONAL)
    for mono, coeff in product.terms.items():
        assert coeff == theta_product_count(range(1, d + 1),
                                            vertex_multiplicities(c, mono))
    assert sum(product.terms.values()) == math.prod(
        math.comb(d + 1, j) for j in range(1, d + 1))


def brute_count(rows, columns):
    """0/1 matrices with these row and column sums, by listing every matrix.
    A row with a negative sum has no choices, and a negative column sum is
    never met."""
    per_row = [itertools.combinations(range(len(columns)), r) if r >= 0 else ()
               for r in rows]
    total = 0
    for choice in itertools.product(*per_row):
        sums = [0] * len(columns)
        for picked in choice:
            for j in picked:
                sums[j] += 1
        total += sums == list(columns)
    return total


@given(st.lists(st.integers(-1, 4), max_size=4),
       st.lists(st.integers(-1, 4), max_size=4))
@example([], [-1, 1])
@example([1, 1], [2, -1, 1])
@example([2, -1], [1])
def test_theta_product_count_matches_listing(rows, columns):
    assert theta_product_count(rows, columns) == brute_count(rows, columns)


def test_theta_product_staircase_terms_d2():
    # the stacked-up terms of the parameter product are exactly the staircase
    # shape component, each with coefficient one
    c = simplex_complex(2)
    product = rank_row_parameter(c, 1, RATIONAL) * rank_row_parameter(c, 2, RATIONAL)
    staircase = Partition((2, 1))
    expected = set(monomials_of_shape(c, staircase))
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
        basis = compute_basis(sd.balancing, RATIONAL).basis
        phi = build_phi(TransferContext(sd), basis)
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
    ctx = TransferContext(triangle_sd)
    basis = compute_basis(triangle_sd.balancing, field).basis
    morphism = average(build_phi(ctx, basis), s3_group)
    bound = 0
    for d in range(7):
        monos = graded_monomials(triangle, degree=d)
        bound += len(monos)
        for m in monos:
            f = RingElement(triangle, field, True, {m: 1})
            rep = represent_on_cell_basis(basis, ctx.to_cell_form(f))
            expected = RingElement(triangle, field, False, {})
            for member, poly in rep.items():
                expected = expected + (poly.evaluate(triangle)
                                       * morphism.images[member])
            assert morphism.apply(f) == expected
        assert len(morphism._product_cache) <= bound


@pytest.mark.parametrize("field", [RATIONAL, FieldSpec.gf(32003)],
                         ids=["rational", "gf:32003"])
def test_product_memo_entries_match_expansion(triangle, triangle_sd, s3_group,
                                              field):
    # every theta^a * image the memo holds, including the steps on the way
    # down to a requested one, equals the expansion times the image
    from facering import verify_morphism
    tetrahedron, tetrahedron_sd, s4_group = tetrahedron_with_s4()
    for c, sd, group, bound in [(triangle, triangle_sd, s3_group, 6),
                                (tetrahedron, tetrahedron_sd, s4_group, 4)]:
        basis = compute_basis(sd.balancing, field).basis
        phi = build_phi(TransferContext(sd), basis)
        averaged = average(phi, group)
        report = verify_morphism(averaged, group, bound)
        assert report.equivariant and report.isomorphism
        for morphism in (phi, averaged):
            assert [k for k in vars(morphism) if k.startswith("_")] \
                == ["_product_cache"]
            assert any(sum(a) for _, a in morphism._product_cache)
            for (member, a), product in morphism._product_cache.items():
                assert product == (parameter_monomial(c, a, field)
                                   * morphism.images[member]).terms


def test_product_of_deep_exponent(double_edge, de_phi):
    # the memo is filled in a loop, not by recursion per theta_j step
    empty = next(m for m in de_phi.basis.members
                 if not de_phi.ctx.sd.chain_of[m])
    assert de_phi._product((0, 1100), empty) == (
        straighten(double_edge, [("alpha", 1100)], RATIONAL)
        + straighten(double_edge, [("beta", 1100)], RATIONAL)).terms


def test_equivariance_failure_at_image_with_extra_term(double_edge,
                                                       double_edge_sd,
                                                       swap_group):
    # images[sigma.m] holds every term of sigma.images[m] and one more, so
    # the check fails at m itself, not only at sigma.m
    ctx = TransferContext(double_edge_sd)
    beta = ((double_edge.resolve("beta"), 1),)
    extra = straighten(double_edge, [("v", 2)], RATIONAL)

    def apply_fn(f):
        image = ctx.garsia(f)
        return image + extra if list(f.terms) == [beta] else image

    report = verify_map(apply_fn, RATIONAL, swap_group, 2)
    assert report.isomorphism and not report.equivariant
    assert report.failures == [{"kind": "equivariance", "degree": 2,
                                "monomial": [["alpha", 1]]}]
