import itertools
import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
from facering.errors import (
    ComplexMismatch,
    FieldMismatch,
    InputError,
    UnknownFace,
)
from facering.face_ring import (
    ParameterPolynomial,
    canonical_mono,
    evaluate_parameters,
    mono_degree,
    mono_label_multidegree,
    mono_rank_multidegree,
    mono_shape,
    parameter_monomial,
    term_sort_key,
    times_parameter,
)
from facering.linalg import RowSpan
from facering.partitions import sh, strictly_dominates

from conftest import (GF2, GF5, RATIONAL, make_disk, make_double_edge,
                      monomials_of_label_multidegree, monomials_of_shape,
                      parameter_products, straighten_by)


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
    # theta_1^k on a point is x_0^k; the evaluator steps by theta_1 in a
    # loop, so a recursion limit below k is no obstacle
    c = build_from_facets([["0"]])
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    k = 2 * (depth + 100)
    sys.setrecursionlimit(depth + 100)
    try:
        got = parameter_monomial(c, (k,), RATIONAL)
    finally:
        sys.setrecursionlimit(limit)
    assert got == el(c, [("0", k)])
    # one memoized step x_0^i * theta_1 for each i < k
    assert len(c._theta_step_cache) == k


def test_parameter_step_memo_is_bounded():
    # theta steps are memoized at most n per monomial, and evaluating again
    # adds no entries
    c = make_double_edge()
    poly = ParameterPolynomial(2, RATIONAL, {(3, 1): 1, (0, 2): -2, (1, 0): 3})
    first = poly.evaluate(c)
    entries = len(c._theta_step_cache)
    assert 0 < entries
    assert max(Counter(m for m, _ in c._theta_step_cache).values()) <= c.n
    assert poly.evaluate(c) == first
    assert len(c._theta_step_cache) == entries


THETA_STEP_COMPLEXES = {"double edge": make_double_edge(), "disk": make_disk(),
                        "triangle": build_from_facets([["0", "1", "2"]])}


@given(st.sampled_from(sorted(THETA_STEP_COMPLEXES)), st.integers(0, 5),
       st.data())
def test_times_parameter_matches_product(name, degree, data):
    c = THETA_STEP_COMPLEXES[name]
    m = data.draw(st.sampled_from(graded_monomials(c, degree=degree)))
    j = data.draw(st.integers(1, c.n))
    x = RingElement(c, RATIONAL, False, {m: 1})
    assert times_parameter(c, m, j) == (x * rank_row_parameter(c, j, RATIONAL)).terms
    x5 = RingElement(c, GF5, False, {m: 3})
    e_j = tuple(int(i == j) for i in range(1, c.n + 1))
    assert evaluate_parameters(x5, {e_j: 1}) == x5 * rank_row_parameter(c, j, GF5)
    assert max(Counter(m for m, _ in c._theta_step_cache).values()) <= c.n
    with pytest.raises(ComplexMismatch):
        evaluate_parameters(RingElement(c, RATIONAL, True, {m: 1}), {e_j: 1})


DISK_LABELS = {"s": 1, "t": 1, "u": 2, "v": 3}
STEP_BALANCINGS = {"disk": Balancing(THETA_STEP_COMPLEXES["disk"], DISK_LABELS)}


@pytest.mark.parametrize("field", [RATIONAL, GF5], ids=["rational", "gf:5"])
@given(data=st.data())
def test_evaluate_parameters_matches_repeated_products(field, data):
    c = THETA_STEP_COMPLEXES[data.draw(st.sampled_from(
        sorted(THETA_STEP_COMPLEXES)))]
    exponents = st.lists(st.integers(0, 5), min_size=c.n, max_size=c.n).filter(
        lambda a: sum(a) <= 5).map(tuple)
    scalars = st.sampled_from([-3, -1, 1, 2, Fraction(1, 2)])
    terms = ParameterPolynomial(c.n, field, data.draw(st.dictionaries(
        exponents, scalars, min_size=1, max_size=4))).terms
    monos = [m for d in range(3) for m in graded_monomials(c, degree=d)]
    element = RingElement(c, field, False, data.draw(st.dictionaries(
        st.sampled_from(monos), scalars, min_size=1, max_size=2)))
    assert evaluate_parameters(element, terms) \
        == parameter_products(element, terms)


# expansions pinned from the implementation that multiplied whole parameter
# elements, as an oracle that shares no code with the Horner evaluator (theta)
# or with the reference products (gamma, omega)
PINNED_EXPANSIONS = [
    ("double edge", (4, 0), "theta", RATIONAL, {
        (("alpha", 2),): 6, (("beta", 2),): 6, (("v", 4),): 1, (("w", 4),): 1,
        (("v", 2), ("alpha", 1)): 4, (("v", 2), ("beta", 1)): 4,
        (("w", 2), ("alpha", 1)): 4, (("w", 2), ("beta", 1)): 4}),
    ("double edge", (4, 0), "theta", GF5, {
        (("alpha", 2),): 1, (("beta", 2),): 1, (("v", 4),): 1, (("w", 4),): 1,
        (("v", 2), ("alpha", 1)): 4, (("v", 2), ("beta", 1)): 4,
        (("w", 2), ("alpha", 1)): 4, (("w", 2), ("beta", 1)): 4}),
    ("triangle", (1, 1, 0), "gamma", RATIONAL, {
        (("0", 1), ("0,1", 1)): 1, (("0", 1), ("0,2", 1)): 1,
        (("1", 1), ("0,1", 1)): 1, (("1", 1), ("1,2", 1)): 1,
        (("2", 1), ("0,2", 1)): 1, (("2", 1), ("1,2", 1)): 1}),
    ("disk", (2, 1, 0), "omega", RATIONAL, {
        (("s", 1), ("alpha", 1)): 1, (("t", 1), ("beta", 1)): 1}),
    ("disk", (1, 1, 1), "omega", GF5, {
        (("P", 1),): 1, (("Q", 1),): 1, (("R", 1),): 1}),
]


@pytest.mark.parametrize("name, exponents, variant, field, expected",
                         PINNED_EXPANSIONS)
def test_parameter_monomial_pinned_values(name, exponents, variant, field,
                                          expected):
    c = THETA_STEP_COMPLEXES[name]
    if variant == "theta":
        got = parameter_monomial(c, exponents, field)
    else:
        got = parameter_products(RingElement.one(c, field, variant == "gamma"),
                                 {exponents: 1}, STEP_BALANCINGS.get(name))
    assert got.terms == {mono(c, pairs): y for pairs, y in expected.items()}


EDGE = THETA_STEP_COMPLEXES["double edge"]


@pytest.mark.parametrize("call, error", [
    (lambda: parameter_monomial(EDGE, (0, 0, 1), RATIONAL), InputError),
    (lambda: evaluate_parameters(RingElement.one(EDGE, RATIONAL, True),
                                 {(1, 0): 1}), ComplexMismatch),
], ids=["theta beyond n", "theta on the discrete ring"])
def test_evaluation_input_checks(call, error):
    with pytest.raises(InputError) as info:
        call()
    assert info.type is error


def test_zero_exponents_beyond_n_are_accepted():
    assert parameter_monomial(EDGE, (1, 0, 0), RATIONAL) \
        == parameter_monomial(EDGE, (1, 0), RATIONAL)


def test_exponent_vectors_of_mixed_length():
    # spellings of one exponent vector add up, as one-key evaluations do
    for terms, field in [({(1,): 1, (1, 0): 2}, RATIONAL),
                         ({(0, 1): 1, (0,): 1}, RATIONAL),
                         ({(1, 0, 0): 1, (1,): 2, (0, 2): 1, (0, 2, 0): 3},
                          RATIONAL),
                         ({(1,): 2, (1, 0): 3, (0, 1, 0): 1}, GF5)]:
        one = RingElement.one(EDGE, field)
        expected = RingElement(EDGE, field, False, {})
        for a, c in terms.items():
            expected = expected + evaluate_parameters(one, {a: c})
        assert evaluate_parameters(one, terms) == expected
    assert evaluate_parameters(RingElement.one(EDGE, RATIONAL),
                               {(1,): 1, (1, 0): 2}) \
        == rank_row_parameter(EDGE, 1, RATIONAL).scale(3)


def test_parameter_polynomial_checks_every_exponent_length():
    # a zero coefficient does not hide a key of the wrong length
    for terms in [{(1, 2, 3): 0, (1, 0): 1}, {(1,): 5}, {(1, 2, 3): 1}]:
        with pytest.raises(InputError, match="length mismatch"):
            ParameterPolynomial(2, GF5, terms)


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
            f = RingElement(c, field, False, {})
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
            q1 = random_polynomial()
            assert_canonical(q1.terms.values(), p)
            assert_canonical(q1.evaluate(c).terms.values(), p)

    # representations come out canonical from unreduced input rows
    width = 4
    span = RowSpan(field, width)
    vectors = []
    for tag in range(6):
        vec = {j: rng.choice(SCALARS) for j in range(width)}
        span.insert(tag, vec)
        vectors.append(vec)
    for _, row in span.rows:
        # real columns, then the combination columns on the inserted vectors
        assert_canonical([x for j, x in row.items() if j < width], p)
        assert_canonical([x for j, x in row.items() if j >= width], p)
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
        tasks.append(lambda c, a=exps: parameter_monomial(c, a, GF5).terms)
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
    ctx = TransferContext(double_edge_sd)
    for d in range(7):
        for m in graded_monomials(double_edge, degree=d):
            cell = ctx.cell_mono_of_multichain(m)
            assert (mono_rank_multidegree(double_edge, m)
                    == mono_label_multidegree(double_edge_sd.balancing, cell))


def test_multidegree_extremes(double_edge_sd):
    target, bal = double_edge_sd.target, double_edge_sd.balancing
    assert mono_label_multidegree(bal, ()) == (0, 0)
    for eps in target.facets:
        assert mono_label_multidegree(bal, ((eps, 1),)) == (1, 1)


def test_rank_row_parameters(double_edge):
    theta1 = rank_row_parameter(double_edge, 1, RATIONAL)
    assert theta1 == el(double_edge, [("v", 1)]) + el(double_edge, [("w", 1)])
    theta2 = rank_row_parameter(double_edge, 2, RATIONAL)
    assert theta2 == el(double_edge, [("alpha", 1)]) + el(double_edge, [("beta", 1)])
    with pytest.raises(InputError):
        rank_row_parameter(double_edge, 3, RATIONAL)


def test_label_row_parameter(disk, disk_balancing):
    omega1 = label_row_parameter(disk_balancing, 1, RATIONAL)
    assert omega1 == el(disk, [("s", 1)]) + el(disk, [("t", 1)])


# -- parameter polynomial evaluation ------------------------------------------------


def test_gamma_monomial_expansion(double_edge):
    poly = ParameterPolynomial(2, RATIONAL, {(2, 1): 1})
    got = parameter_products(RingElement.one(double_edge, RATIONAL, True),
                             poly.terms)
    expected = (el(double_edge, [("v", 2), ("alpha", 1)], discrete=True)
                + el(double_edge, [("v", 2), ("beta", 1)], discrete=True)
                + el(double_edge, [("w", 2), ("alpha", 1)], discrete=True)
                + el(double_edge, [("w", 2), ("beta", 1)], discrete=True))
    assert got == expected


def test_constant_parameter_poly(double_edge):
    poly = ParameterPolynomial(2, RATIONAL, {(0, 0): 1})
    assert poly.evaluate(double_edge) \
        == RingElement.one(double_edge, RATIONAL)


def test_theta_monomial_matches_product(double_edge):
    poly = ParameterPolynomial(2, RATIONAL, {(2, 1): 1})
    theta1 = rank_row_parameter(double_edge, 1, RATIONAL)
    theta2 = rank_row_parameter(double_edge, 2, RATIONAL)
    assert poly.evaluate(double_edge) \
        == theta1 * theta1 * theta2


def test_parameter_poly_printing():
    poly = ParameterPolynomial(2, RATIONAL, {
        (2, 1): 1, (0, 2): -1})
    assert str(poly) == "t1^2*t2 - t2^2"
    assert str(ParameterPolynomial(2, RATIONAL)) == "0"


# -- graded enumeration ---------------------------------------------------------------


def test_graded_monomials_by_shape(double_edge):
    got = monomials_of_shape(double_edge, Partition((3, 1)))
    expected = {mono(double_edge, [(v, 2), (e, 1)])
                for v in "vw" for e in ("alpha", "beta")}
    assert set(got) == expected
    assert monomials_of_shape(double_edge, Partition((1, 1))) == [
        mono(double_edge, [("alpha", 1)]), mono(double_edge, [("beta", 1)])]


def test_graded_monomials_degree_zero(double_edge):
    assert graded_monomials(double_edge, degree=0) == [()]


def _multichains(c, bound):
    """Every multichain of ``c`` with exponents in 1..bound, the monomial 1
    included: chains of nonempty faces grown one face at a time by scanning
    the order relation, times every exponent vector."""
    chains, frontier = [()], [()]
    while frontier:
        frontier = [ch + (f,) for ch in frontier for f in range(1, len(c))
                    if not ch or (f != ch[-1] and c.leq(ch[-1], f))]
        chains += frontier
    return [canonical_mono(c, zip(ch, es)) for ch in chains
            for es in itertools.product(range(1, bound + 1), repeat=len(ch))]


BRUTE_FORCE_LABELS = {"double_edge": {"v": 1, "w": 2},
                      "triangle": {"0": 1, "1": 2, "2": 3}, "disk": DISK_LABELS}


@pytest.mark.parametrize("name", ["double_edge", "triangle", "disk",
                                  "double_edge_sd"])
def test_graded_monomials_match_brute_force(name, request):
    c = request.getfixturevalue(name)
    if name == "double_edge_sd":
        c, balancing = c.target, c.balancing
    else:
        balancing = Balancing(c, BRUTE_FORCE_LABELS[name])
    key = lambda m: term_sort_key(c, m)

    def reference(monos, keep):
        return sorted((m for m in monos if keep(m)), key=key)

    # a degree-d monomial has exponents at most d
    upto4 = _multichains(c, 4)
    for d in range(5):
        assert graded_monomials(c, degree=d) == reference(
            upto4, lambda m: mono_degree(c, m) == d)
    # every face weighs in some entry, so exponents are at most the largest
    upto2 = _multichains(c, 2)
    for vec in itertools.product(range(3), repeat=c.n):
        degree = sum((j + 1) * a for j, a in enumerate(vec))
        assert [m for m in graded_monomials(c, degree=degree)
                if mono_rank_multidegree(c, m) == vec] == reference(
            upto2, lambda m: mono_rank_multidegree(c, m) == vec)
        assert monomials_of_shape(c, sh(vec)) == reference(
            upto2, lambda m: mono_shape(c, m) == sh(vec))
        assert monomials_of_label_multidegree(balancing, vec) == \
            reference(upto2,
                      lambda m: mono_label_multidegree(balancing, m) == vec)


def test_gamma_monomials_cover_shape_component(double_edge, triangle):
    # discrete-ring expansion of a parameter monomial is the sum, coefficient
    # one, of every standard monomial of the corresponding shape
    for c in (double_edge, triangle):
        n = c.n
        for exps in itertools.product(range(3), repeat=n):
            if sum(exps) == 0 or sum(e * (j + 1) for j, e in enumerate(exps)) > 6:
                continue
            got = parameter_products(RingElement.one(c, RATIONAL, True),
                                     {exps: 1})
            lam = sh(exps)
            expected = monomials_of_shape(c, lam)
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
            got = parameter_monomial(c, exps, RATIONAL)
            lam = sh(exps)
            top = set(monomials_of_shape(c, lam))
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
            got = parameter_products(RingElement.one(c, RATIONAL), {exps: 1},
                                     bal)
            expected = monomials_of_label_multidegree(bal, exps)
            assert sorted(got.terms) == sorted(expected)
            assert all(coeff == 1 for coeff in got.terms.values())


def test_homogeneous_terms_sit_under_distinct_facets(disk, disk_balancing):
    # multigraded elements have at most one term under each facet
    for exps in itertools.product(range(3), repeat=3):
        if not 0 < sum(exps) <= 5:
            continue
        got = parameter_products(RingElement.one(disk, RATIONAL), {exps: 1},
                                 disk_balancing)
        for eps in disk.facets:
            under = [m for m in got.terms
                     if all(disk.leq(f, eps) for f, _ in m)]
            assert len(under) <= 1


def test_omega_times_monomial_never_zero(disk, disk_balancing, double_edge_sd):
    cases = [(disk, disk_balancing), (double_edge_sd.target, double_edge_sd.balancing)]
    for c, bal in cases:
        omegas = [label_row_parameter(bal, j, RATIONAL)
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
                got = straighten_by(c, canonical_mono(c, raw),
                                    lambda pairs: rng.choice(pairs))
                assert RingElement(c, RATIONAL, False, got) == reference


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
    omega1 = label_row_parameter(disk_balancing, 1, RATIONAL)
    verts, image = project_to_face(omega1, "P")
    s = disk.resolve("s")
    assert s in verts
    expected_key = tuple(1 if v == s else 0 for v in verts)
    assert image == {expected_key: 1}


def test_project_kills_outside_support(disk):
    f = el(disk, [("zeta", 1)])
    _, image = project_to_face(f, "P")
    assert image == {}


def test_project_facet_generator(disk):
    f = el(disk, [("P", 1)])
    verts, image = project_to_face(f, "P")
    assert image == {(1,) * len(verts): 1}


def test_project_injective_on_sitting_monomials(disk):
    eps = disk.resolve("P")
    sitting = [m for d in range(1, 5) for m in graded_monomials(disk, degree=d)
               if all(disk.leq(f, eps) for f, _ in m)]
    images = set()
    for m in sitting:
        _, image = project_to_face(RingElement.monomial(disk, RATIONAL, m), eps)
        assert len(image) == 1
        images.add(next(iter(image)))
    assert len(images) == len(sitting)


def test_project_reads_the_face_off_the_element(double_edge):
    f = el(double_edge, [("alpha", 1)]) + el(double_edge, [("beta", 1)])
    for face in ["P", len(double_edge)]:  # a disk face, an index past the edge's
        with pytest.raises(UnknownFace):
            project_to_face(f, face)
    assert project_to_face(f, "alpha")[1] == {(1, 1): 1}


def test_fine_vectors_double_edge_sd(double_edge_sd):
    f, h = fine_vectors(double_edge_sd.balancing)
    assert f == {(): 1, (1,): 2, (2,): 2, (1, 2): 4}
    assert h == {(): 1, (1,): 1, (2,): 1, (1, 2): 1}


def test_fine_vectors_single_vertex():
    from facering import build_from_facets
    c = build_from_facets([["x"]])
    bal = Balancing(c, {"x": 1})
    f, h = fine_vectors(bal)
    assert f == {(): 1, (1,): 1}
    assert h == {(): 1, (1,): 0}


def test_fine_vectors_disk(disk_balancing):
    f, h = fine_vectors(disk_balancing)
    assert f == {(): 1, (1,): 2, (2,): 1, (3,): 1, (1, 2): 2, (1, 3): 2,
                 (2, 3): 2, (1, 2, 3): 3}
    assert {s: c for s, c in h.items() if c} == {(): 1, (1,): 1, (2, 3): 1}
