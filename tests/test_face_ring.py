import itertools
import random
import sys
import threading
from fractions import Fraction

import pytest

from facering import (
    Balancing,
    Partition,
    RingElement,
    build_from_facets,
    fine_vectors,
    graded_monomials,
    label_row_parameter,
    project_to_face,
    rank_row_parameter,
    straighten,
)
from facering.coeff import normal
from facering.errors import ComplexMismatch, FieldMismatch, InputError
from facering.face_ring import (
    ParameterPolynomial,
    canonical_mono,
    mono_degree,
    mono_label_multidegree,
    mono_rank_multidegree,
    mono_shape,
    parameter_monomial,
    straighten_with_strategy,
)
from facering.linalg import RowSpan
from facering.partitions import sh, strictly_dominates

from conftest import GF2, GF5, RATIONAL, make_disk, make_double_edge


def el(c, pairs, field=RATIONAL, coeff=1, discrete=False):
    return straighten(c, pairs, field, coeff, discrete)


def mono(c, pairs):
    return canonical_mono(c, [(c.resolve(f), e) for f, e in pairs])


# -- straightening goldens -------------------------------------------------------


def test_straighten_double_edge(double_edge):
    got = el(double_edge, [("v", 1), ("w", 1)])
    assert got == el(double_edge, [("alpha", 1)]) + el(double_edge, [("beta", 1)])


def test_straighten_chain_is_identity(double_edge):
    got = el(double_edge, [("w", 2), ("beta", 3)])
    assert list(got.terms) == [mono(double_edge, [("w", 2), ("beta", 3)])]
    assert next(iter(got.terms.values())) == 1


def test_straighten_no_upper_bound_is_zero(disjoint_edges):
    assert el(disjoint_edges, [("a", 1), ("b", 1)]).is_zero


def test_deep_power_memo_stays_linear():
    # x_v^k * x_w^k = x_alpha^k + x_beta^k; every term holding both edges dies
    # at once, so the memo grows linearly in k, and no recursion is involved
    c = make_double_edge()
    k = 1000
    got = el(c, [("v", k), ("w", k)])
    assert got == el(c, [("alpha", k)]) + el(c, [("beta", k)])
    assert len(c._straighten_cache) < 5 * k


def test_deep_parameter_power_needs_no_recursion():
    # theta_1^k on a point is x_0^k; the expansion walks its prefix chain in
    # a loop, so a recursion limit below k is no obstacle
    from facering.face_ring import parameter_monomial
    c = build_from_facets([["0"]])
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    k = 2 * (depth + 100)
    sys.setrecursionlimit(depth + 100)
    try:
        got = parameter_monomial(c, (k,), "theta", RATIONAL)
    finally:
        sys.setrecursionlimit(limit)
    assert got == el(c, [("0", k)])
    assert len(c._param_cache) == k + 1


def test_parameter_memo_keys_follow_the_prefix_chain():
    # each expansion lowers the first nonzero exponent once, and every prefix
    # on that chain is memoized
    from facering.face_ring import parameter_monomial
    c = make_double_edge()
    theta1 = rank_row_parameter(c, 1, RATIONAL)
    theta2 = rank_row_parameter(c, 2, RATIONAL)
    assert parameter_monomial(c, (2, 1), "theta", RATIONAL) \
        == theta2 * theta1 * theta1
    assert set(c._param_cache) == {(("theta",), a) for a in
                                   [(2, 1), (1, 1), (0, 1), (0, 0)]}
    assert c._param_cache[(("theta",), (1, 1))] == theta2 * theta1
    parameter_monomial(c, (3, 1), "theta", RATIONAL)
    assert len(c._param_cache) == 5


def test_empty_face_acts_as_one(double_edge):
    assert el(double_edge, [("", 2), ("v", 1)]) == el(double_edge, [("v", 1)])


def test_multiply_by_one(double_edge):
    f = el(double_edge, [("v", 1), ("w", 1)])
    assert f * RingElement.one(double_edge, RATIONAL) == f


def test_theta_squared_theta2_expansion(double_edge):
    theta1 = rank_row_parameter(double_edge, 1, RATIONAL)
    theta2 = rank_row_parameter(double_edge, 2, RATIONAL)
    got = theta1 * theta1 * theta2
    expected = (el(double_edge, [("v", 2), ("alpha", 1)])
                + el(double_edge, [("v", 2), ("beta", 1)])
                + el(double_edge, [("w", 2), ("alpha", 1)])
                + el(double_edge, [("w", 2), ("beta", 1)])
                + el(double_edge, [("alpha", 2)], coeff=2)
                + el(double_edge, [("beta", 2)], coeff=2))
    assert got == expected


def test_theta_expansion_mod_two(double_edge):
    theta1 = rank_row_parameter(double_edge, 1, GF2)
    theta2 = rank_row_parameter(double_edge, 2, GF2)
    got = theta1 * theta1 * theta2
    assert len(got.terms) == 4  # the coefficient-2 square terms vanish
    assert mono(double_edge, [("alpha", 2)]) not in got.terms


def test_straighten_input_validation(double_edge):
    with pytest.raises(InputError):
        straighten(double_edge, [("v", -1)], RATIONAL)
    with pytest.raises(InputError):
        RingElement.monomial(double_edge, RATIONAL,
                             ((double_edge.resolve("v"), 1),
                              (double_edge.resolve("w"), 1)))


def test_ring_mismatch_errors(double_edge, disk):
    with pytest.raises(ComplexMismatch):
        el(double_edge, [("v", 1)]) * el(disk, [("s", 1)])
    with pytest.raises(ComplexMismatch):
        el(double_edge, [("v", 1)]) * el(double_edge, [("v", 1)], discrete=True)
    with pytest.raises(FieldMismatch):
        el(double_edge, [("v", 1)]) * el(double_edge, [("v", 1)], field=GF2)


# -- canonical scalars ------------------------------------------------------------


def assert_canonical(values, p):
    """Nonzero, reduced, and an int unless the value is non-integral over Q."""
    for c in values:
        assert c and normal(c, p) == c
        assert type(c) is int or (p is None and type(c) is Fraction
                                  and c.denominator != 1)


SCALARS = [0, 1, -1, 2, 7, -12, 10**20 + 1, Fraction(1, 3), Fraction(-5, 3),
           Fraction(9, 3)]


@pytest.mark.parametrize("field", [RATIONAL, GF2, GF5], ids=str)
def test_stored_scalars_are_canonical(field, double_edge, disk):
    rng = random.Random(31)
    p = field.p
    for c in (double_edge, disk):
        faces = range(1, len(c))

        def random_element():
            f = RingElement.zero(c, field)
            for _ in range(rng.randint(1, 3)):
                pairs = [(rng.choice(faces), rng.randint(1, 2))
                         for _ in range(rng.randint(1, 2))]
                f = f + straighten(c, pairs, field, rng.choice(SCALARS))
            return f

        def random_polynomial():
            return ParameterPolynomial(c.n, field, {
                tuple(rng.randint(0, 2) for _ in range(c.n)): rng.choice(SCALARS)
                for _ in range(3)})

        for _ in range(20):
            a, b = random_element(), random_element()
            k = rng.choice(SCALARS)
            for x in (a, a + b, a - b, -a, a * b, (a + b) * (a - b),
                      a.scale(k), k * a, a * k):
                assert_canonical(x.terms.values(), p)
            q1, q2 = random_polynomial(), random_polynomial()
            for q in (q1, q1 + q2, q1 - q2, -q1, q1.scale(k)):
                assert_canonical(q.terms.values(), p)
            assert_canonical(q1.evaluate(c, "theta").terms.values(), p)

    # representations come out canonical from unreduced input rows
    width = 4
    span = RowSpan(field, width)
    vectors = []
    for tag in range(6):
        vec = {j: rng.choice(SCALARS) for j in range(width)}
        span.insert(tag, vec)
        vectors.append(vec)
    for _, row, combo in span.rows:
        assert_canonical(row.values(), p)
        assert_canonical(combo.values(), p)
    for _ in range(20):
        ks = [rng.choice(SCALARS) for _ in vectors]
        target = {j: sum(k * v[j] for k, v in zip(ks, vectors))
                  for j in range(width)}
        rep = span.represent(target)
        assert rep is not None
        assert_canonical(rep.values(), p)


def test_concurrent_readers_share_memos():
    """Four threads reading one fresh complex's memos get the single-thread
    results: the memos never expose a partial value."""
    rng = random.Random(41)
    disk = make_disk()
    faces = range(1, len(disk))
    products = [[(rng.choice(faces), rng.randint(1, 5)) for _ in range(3)]
                for _ in range(40)]
    tasks = [lambda c, raw=raw: straighten(c, raw, RATIONAL).terms
             for raw in products]
    for exps in itertools.product(range(4), repeat=disk.n):
        tasks.append(lambda c, a=exps: parameter_monomial(c, a, "theta",
                                                          GF5).terms)
        tasks.append(lambda c, a=exps: parameter_monomial(c, a, "gamma",
                                                          RATIONAL).terms)
    expected = [task(disk) for task in tasks]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to interleave writes
    try:
        for _ in range(10):
            shared = make_disk()
            barrier = threading.Barrier(4)
            results, errors = [[None] * len(tasks) for _ in range(4)], []

            def reader(i):
                # each thread starts at a different task, so one thread's
                # memo writes race with another's reads of the same keys
                try:
                    barrier.wait(timeout=60)
                    for k in range(len(tasks)):
                        j = (k + i * len(tasks) // 4) % len(tasks)
                        results[i][j] = tasks[j](shared)
                except Exception as exc:  # reported below
                    errors.append(exc)

            threads = [threading.Thread(target=reader, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            assert all(r == expected for r in results)
    finally:
        sys.setswitchinterval(interval)


# -- gradings ---------------------------------------------------------------------


def test_shape_examples(double_edge, triangle):
    assert mono_shape(double_edge, mono(double_edge, [("w", 2), ("alpha", 3)])) \
        == Partition((5, 3))
    m = mono(triangle, [("1", 2), ("1,2", 3), ("0,1,2", 1)])
    assert mono_shape(triangle, m) == Partition((6, 4, 1))
    assert mono_shape(double_edge, ()) == Partition()


def test_degree_examples(double_edge):
    assert mono_degree(double_edge, mono(double_edge, [("w", 2), ("alpha", 3)])) == 8
    assert mono_degree(double_edge, ()) == 0
    assert mono_degree(double_edge, mono(double_edge, [("w", 2), ("beta", 1)])) == 4


def test_degree_is_shape_weight(double_edge, triangle):
    for c in (double_edge, triangle):
        for d in range(7):
            for m in graded_monomials(c, degree=d):
                assert mono_shape(c, m).weight == mono_degree(c, m)


def test_multidegree_conventions_agree_on_subdivision(double_edge, double_edge_sd):
    # the rank-vector degree of a multichain equals the label-vector degree of
    # its cell form on the subdivision, face by face
    from facering.transfer import TransferContext
    ctx = TransferContext(double_edge_sd, RATIONAL)
    for d in range(7):
        for m in graded_monomials(double_edge, degree=d):
            cell = ctx.cell_mono_of_multichain(m)
            assert (mono_rank_multidegree(double_edge, m)
                    == mono_label_multidegree(double_edge_sd.target,
                                              double_edge_sd.balancing, cell))


def test_multidegree_extremes(double_edge_sd):
    target, bal = double_edge_sd.target, double_edge_sd.balancing
    assert mono_label_multidegree(target, bal, ()) == (0, 0)
    for eps in target.facets:
        assert mono_label_multidegree(target, bal, ((eps, 1),)) == (1, 1)


def test_rank_row_parameters(double_edge):
    theta1 = rank_row_parameter(double_edge, 1, RATIONAL)
    assert theta1 == el(double_edge, [("v", 1)]) + el(double_edge, [("w", 1)])
    theta2 = rank_row_parameter(double_edge, 2, RATIONAL)
    assert theta2 == el(double_edge, [("alpha", 1)]) + el(double_edge, [("beta", 1)])
    with pytest.raises(InputError):
        rank_row_parameter(double_edge, 3, RATIONAL)


def test_label_row_parameter(disk, disk_balancing):
    omega1 = label_row_parameter(disk, disk_balancing, 1, RATIONAL)
    assert omega1 == el(disk, [("s", 1)]) + el(disk, [("t", 1)])


# -- parameter polynomial evaluation ------------------------------------------------


def test_gamma_monomial_expansion(double_edge):
    poly = ParameterPolynomial.monomial(2, RATIONAL, (2, 1))
    got = poly.evaluate(double_edge, "gamma")
    expected = (el(double_edge, [("v", 2), ("alpha", 1)], discrete=True)
                + el(double_edge, [("v", 2), ("beta", 1)], discrete=True)
                + el(double_edge, [("w", 2), ("alpha", 1)], discrete=True)
                + el(double_edge, [("w", 2), ("beta", 1)], discrete=True))
    assert got == expected


def test_constant_parameter_poly(double_edge):
    poly = ParameterPolynomial.monomial(2, RATIONAL, (0, 0))
    assert poly.evaluate(double_edge, "theta") \
        == RingElement.one(double_edge, RATIONAL)


def test_theta_monomial_matches_product(double_edge):
    poly = ParameterPolynomial.monomial(2, RATIONAL, (2, 1))
    theta1 = rank_row_parameter(double_edge, 1, RATIONAL)
    theta2 = rank_row_parameter(double_edge, 2, RATIONAL)
    assert poly.evaluate(double_edge, "theta") \
        == theta1 * theta1 * theta2


def test_parameter_poly_printing():
    poly = ParameterPolynomial(2, RATIONAL, {
        (2, 1): 1, (0, 2): -1})
    assert str(poly) == "t1^2*t2 - t2^2"
    assert str(ParameterPolynomial.zero(2, RATIONAL)) == "0"


# -- graded enumeration ---------------------------------------------------------------


def test_graded_monomials_by_shape(double_edge):
    got = graded_monomials(double_edge, shape=Partition((3, 1)))
    expected = {mono(double_edge, [(v, 2), (e, 1)])
                for v in "vw" for e in ("alpha", "beta")}
    assert set(got) == expected
    assert graded_monomials(double_edge, shape=Partition((1, 1))) == [
        mono(double_edge, [("alpha", 1)]), mono(double_edge, [("beta", 1)])]


def test_graded_monomials_degree_zero(double_edge):
    assert graded_monomials(double_edge, degree=0) == [()]


def test_graded_monomials_selector_validation(double_edge):
    with pytest.raises(InputError):
        graded_monomials(double_edge)
    with pytest.raises(InputError):
        graded_monomials(double_edge, degree=1, shape=Partition((1,)))


def test_gamma_monomials_cover_shape_component(double_edge, triangle):
    # discrete-ring expansion of a parameter monomial is the sum, coefficient
    # one, of every standard monomial of the corresponding shape
    for c in (double_edge, triangle):
        n = c.n
        for exps in itertools.product(range(3), repeat=n):
            if sum(exps) == 0 or sum(e * (j + 1) for j, e in enumerate(exps)) > 6:
                continue
            poly = ParameterPolynomial.monomial(n, RATIONAL, exps)
            got = poly.evaluate(c, "gamma")
            lam = sh(exps)
            expected = graded_monomials(c, shape=lam)
            assert sorted(got.terms) == sorted(expected)
            assert all(coeff == 1 for coeff in got.terms.values())


def test_theta_monomials_dominate_shape_component(double_edge, triangle):
    # the face-ring expansion contains every monomial of the top shape with
    # coefficient one; all other terms are strictly dominated
    for c in (double_edge, triangle):
        n = c.n
        for exps in itertools.product(range(3), repeat=n):
            if sum(exps) == 0 or sum(e * (j + 1) for j, e in enumerate(exps)) > 6:
                continue
            poly = ParameterPolynomial.monomial(n, RATIONAL, exps)
            got = poly.evaluate(c, "theta")
            lam = sh(exps)
            top = set(graded_monomials(c, shape=lam))
            for m, coeff in got.terms.items():
                if m in top:
                    assert coeff == 1
                else:
                    assert strictly_dominates(lam, mono_shape(c, m))
            assert top <= set(got.terms)


def test_omega_monomials_cover_multidegree(disk, disk_balancing, double_edge_sd):
    cases = [(disk, disk_balancing), (double_edge_sd.target, double_edge_sd.balancing)]
    for c, bal in cases:
        n = bal.n
        for exps in itertools.product(range(3), repeat=n):
            if not 0 < sum(exps) <= 4:
                continue
            poly = ParameterPolynomial.monomial(n, RATIONAL, exps)
            got = poly.evaluate(c, "omega", balancing=bal)
            expected = graded_monomials(c, multidegree=exps, balancing=bal)
            assert sorted(got.terms) == sorted(expected)
            assert all(coeff == 1 for coeff in got.terms.values())


def test_homogeneous_terms_sit_under_distinct_facets(disk, disk_balancing):
    # multigraded elements have at most one term under each facet
    for exps in itertools.product(range(3), repeat=3):
        if not 0 < sum(exps) <= 5:
            continue
        poly = ParameterPolynomial.monomial(3, RATIONAL, exps)
        got = poly.evaluate(disk, "omega", balancing=disk_balancing)
        for eps in disk.facets:
            under = [m for m in got.terms
                     if all(disk.leq(f, eps) for f, _ in m)]
            assert len(under) <= 1


def test_omega_times_monomial_never_zero(disk, disk_balancing, double_edge_sd):
    cases = [(disk, disk_balancing), (double_edge_sd.target, double_edge_sd.balancing)]
    for c, bal in cases:
        omegas = [label_row_parameter(c, bal, j, RATIONAL)
                  for j in range(1, bal.n + 1)]
        for d in range(4):
            for m in graded_monomials(c, degree=d):
                f = RingElement.monomial(c, RATIONAL, m)
                for omega in omegas:
                    assert not (omega * f).is_zero


# -- straightening properties -----------------------------------------------------------


def test_straightening_confluence(double_edge, triangle, disk):
    rng = random.Random(20240811)
    for c in (double_edge, triangle, disk):
        faces = list(range(1, len(c)))
        for _ in range(40):
            raw = [(rng.choice(faces), rng.randint(1, 2))
                   for _ in range(rng.randint(2, 4))]
            reference = straighten(c, raw, RATIONAL)
            for _ in range(4):
                strategy = lambda pairs: rng.choice(pairs)
                got = straighten_with_strategy(c, raw, RATIONAL, strategy)
                assert got == reference


def test_filtration_of_products(double_edge, disk):
    # every term of a product of monomials is dominated by the shape sum,
    # strictly unless the factors stack up (then: a single term, equal shape)
    for c in (double_edge, disk):
        monos = [m for d in range(1, 5) for m in graded_monomials(c, degree=d)]
        for m1, m2 in itertools.product(monos, repeat=2):
            if mono_degree(c, m1) + mono_degree(c, m2) > 6:
                continue
            f = RingElement.monomial(c, RATIONAL, m1) \
                * RingElement.monomial(c, RATIONAL, m2)
            total = mono_shape(c, m1) + mono_shape(c, m2)
            support = set(f for f, _ in m1) | set(f for f, _ in m2)
            stacked = all(c.comparable(a, b)
                          for a, b in itertools.combinations(support, 2))
            if stacked:
                assert len(f.terms) == 1
                only = next(iter(f.terms))
                assert mono_shape(c, only) == total
                assert next(iter(f.terms.values())) == 1
            else:
                for m in f.terms:
                    assert strictly_dominates(total, mono_shape(c, m))


def test_normal_form_of_vertex_powers(triangle):
    # on a simplex the ring is polynomial on the vertices: the raw vertex
    # power product x_0 x_1^6 x_2^4 normalizes to the single standard
    # monomial x[1]^2 x[1,2]^3 x[0,1,2]
    got = el(triangle, [("0", 1), ("1", 6), ("2", 4)])
    assert got == el(triangle, [("1", 2), ("1,2", 3), ("0,1,2", 1)])


def test_parameter_relation_on_double_edge(double_edge):
    # x_v^3 - (theta_1^2 - theta_2) x_v + theta_1 theta_2 = 0
    theta1 = rank_row_parameter(double_edge, 1, RATIONAL)
    theta2 = rank_row_parameter(double_edge, 2, RATIONAL)
    xv = el(double_edge, [("v", 1)])
    relation = el(double_edge, [("v", 3)]) - (theta1 * theta1 - theta2) * xv \
        + theta1 * theta2
    assert relation.is_zero


# -- projections and fine vectors ----------------------------------------------------


def test_project_omega_to_facet(disk, disk_balancing):
    omega1 = label_row_parameter(disk, disk_balancing, 1, RATIONAL)
    verts, image = project_to_face(disk, "P", omega1)
    s = disk.resolve("s")
    assert s in verts
    expected_key = tuple(1 if v == s else 0 for v in verts)
    assert image == {expected_key: 1}


def test_project_kills_outside_support(disk):
    f = el(disk, [("zeta", 1)])
    _, image = project_to_face(disk, "P", f)
    assert image == {}


def test_project_facet_generator(disk):
    f = el(disk, [("P", 1)])
    verts, image = project_to_face(disk, "P", f)
    assert image == {(1,) * len(verts): 1}


def test_project_injective_on_sitting_monomials(disk):
    eps = disk.resolve("P")
    sitting = [m for d in range(1, 5) for m in graded_monomials(disk, degree=d)
               if all(disk.leq(f, eps) for f, _ in m)]
    images = set()
    for m in sitting:
        _, image = project_to_face(disk, eps, RingElement.monomial(disk, RATIONAL, m))
        assert len(image) == 1
        images.add(next(iter(image)))
    assert len(images) == len(sitting)


def test_fine_vectors_double_edge_sd(double_edge_sd):
    f, h = fine_vectors(double_edge_sd.target, double_edge_sd.balancing)
    assert f == {(): 1, (1,): 2, (2,): 2, (1, 2): 4}
    assert h == {(): 1, (1,): 1, (2,): 1, (1, 2): 1}


def test_fine_vectors_single_vertex():
    from facering import build_from_facets
    c = build_from_facets([["x"]])
    bal = Balancing(c, {"x": 1})
    f, h = fine_vectors(c, bal)
    assert f == {(): 1, (1,): 1}
    assert h == {(): 1, (1,): 0}


def test_fine_vectors_disk(disk, disk_balancing):
    f, h = fine_vectors(disk, disk_balancing)
    assert f == {(): 1, (1,): 2, (2,): 1, (3,): 1, (1, 2): 2, (1, 3): 2,
                 (2, 3): 2, (1, 2, 3): 3}
    assert {s: c for s, c in h.items() if c} == {(): 1, (1,): 1, (2, 3): 1}
