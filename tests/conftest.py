from collections import Counter

import pytest
from hypothesis import settings, strategies as st

settings.register_profile("det", derandomize=True, max_examples=60)
settings.load_profile("det")

from facering import (
    Balancing,
    FieldSpec,
    RingElement,
    barycentric_subdivision,
    build_from_facets,
    build_from_poset,
    graded_monomials,
    label_row_parameter,
    rank_row_parameter,
)
from facering.face_ring import canonical_mono, mono_label_multidegree, mono_shape

RATIONAL = FieldSpec.rational()
GF2 = FieldSpec.gf(2)
GF5 = FieldSpec.gf(5)


@pytest.fixture(scope="session")
def rational():
    return RATIONAL


@pytest.fixture(scope="session")
def gf2():
    return GF2


@pytest.fixture(scope="session")
def gf5():
    return GF5


@pytest.fixture(scope="session", params=["rational", "gf:2", "gf:5"])
def any_field(request):
    return FieldSpec.parse(request.param)


def straighten_by(c, mono, pick):
    """Reference normal form ``{monomial: count}`` of a canonical exponent
    multiset, rewriting the incomparable support pair that ``pick(pairs)``
    returns by x_a * x_b = x_(a meet b) * (sum of x_g over the minimal upper
    bounds g of a and b), zero without an upper bound.  Recursive, so for
    small inputs only."""
    support = sorted(f for f, _ in mono)
    pairs = [(a, b) for i, a in enumerate(support) for b in support[i + 1:]
             if not c.comparable(a, b)]
    if not pairs:
        return {mono: 1}
    a, b = pick(pairs)
    lub = c.lub_set(a, b)
    if not lub:
        return {}
    base = [(f, e - (f == a) - (f == b)) for f, e in mono] + [(c.meet(a, b), 1)]
    counts = Counter()
    for g in lub:
        counts.update(straighten_by(c, canonical_mono(c, base + [(g, 1)]), pick))
    return dict(counts)


def parameter_products(element, terms, balancing=None):
    """The sum of c * P^a * element over the pairs (a, c) of ``terms``, by
    repeated ``RingElement.__mul__`` with whole parameter elements: P the
    label rows omega of ``balancing`` when one is given, else the rank rows
    of the element's presentation (theta in the face ring, gamma in the
    discrete ring).  A reference that shares no code with the Horner
    evaluator."""
    c, field = element.complex, element.field
    if balancing is not None:
        params = [label_row_parameter(balancing, j, field)
                  for j in range(1, balancing.n + 1)]
    else:
        params = [rank_row_parameter(c, j, field, element.discrete)
                  for j in range(1, c.n + 1)]
    total = RingElement(c, field, element.discrete, {})
    for a, coeff in terms.items():
        product = element
        for param, e in zip(params, a):
            for _ in range(e):
                product = product * param
        total = total + product.scale(coeff)
    return total


def evaluate_cell_representation(basis, coefficients):
    """The sum of q_b(label rows) * z_b over the pairs (b, q_b) of
    ``coefficients``, in the face ring of the basis's complex: the reference
    inverse of ``represent_on_cell_basis``."""
    total = RingElement(basis.complex, basis.field, False, {})
    for member, poly in coefficients.items():
        z = RingElement.monomial(basis.complex, basis.field, ((member, 1),))
        total = total + parameter_products(z, poly.terms, basis.balancing)
    return total


def monomials_of_shape(c, lam):
    """The standard monomials of shape ``lam``, in canonical order."""
    return [m for m in graded_monomials(c, degree=lam.weight)
            if mono_shape(c, m) == lam]


def monomials_of_label_multidegree(balancing, vec):
    """The standard monomials of label multidegree ``vec``, in canonical
    order; a face of a balanced complex has as many labels as its rank."""
    return [m for m in graded_monomials(balancing.complex, degree=sum(vec))
            if mono_label_multidegree(balancing, m) == tuple(vec)]


def simplex_complex(d):
    """The d-simplex on the vertices "0" .. "d"."""
    return build_from_facets([[str(i) for i in range(d + 1)]])


def make_double_edge():
    # two vertices joined by a pair of parallel edges (a circle)
    return build_from_poset([
        {"id": "v"}, {"id": "w"},
        {"id": "alpha", "covers": ["v", "w"]},
        {"id": "beta", "covers": ["v", "w"]},
    ])


def make_disk():
    # a balanced 2-disk: two label-1 vertices s,t; u and v carry labels 2,3
    return build_from_poset([
        {"id": "s"}, {"id": "t"}, {"id": "u"}, {"id": "v"},
        {"id": "alpha", "covers": ["s", "u"]},
        {"id": "beta", "covers": ["t", "u"]},
        {"id": "gamma", "covers": ["s", "v"]},
        {"id": "delta", "covers": ["t", "v"]},
        {"id": "epsilon", "covers": ["u", "v"]},
        {"id": "zeta", "covers": ["u", "v"]},
        {"id": "P", "covers": ["alpha", "gamma", "epsilon"]},
        {"id": "Q", "covers": ["beta", "delta", "epsilon"]},
        {"id": "R", "covers": ["beta", "delta", "zeta"]},
    ])


@pytest.fixture(scope="session")
def double_edge():
    return make_double_edge()


@pytest.fixture(scope="session")
def double_edge_balancing(double_edge):
    return Balancing(double_edge, {"v": 1, "w": 2})


@pytest.fixture(scope="session")
def double_edge_sd(double_edge):
    return barycentric_subdivision(double_edge)


@pytest.fixture(scope="session")
def disk():
    return make_disk()


@pytest.fixture(scope="session")
def disk_balancing(disk):
    return Balancing(disk, {"s": 1, "t": 1, "u": 2, "v": 3})


@pytest.fixture(scope="session")
def disjoint_edges():
    return build_from_facets([["a", "c"], ["b", "d"]])


@pytest.fixture(scope="session")
def disjoint_edges_balancing(disjoint_edges):
    return Balancing(disjoint_edges, {"a": 1, "b": 1, "c": 2, "d": 2})


@pytest.fixture(scope="session")
def triangle():
    return build_from_facets([["0", "1", "2"]])


@pytest.fixture(scope="session")
def triangle_sd(triangle):
    return barycentric_subdivision(triangle)


# Expression strings on the double edge (faces v, w, alpha, beta), for the
# parser and CLI property tests.
COEFFICIENT = (st.sampled_from(["1/2", "-3/4", "4/2", "0/5", "0", "-1"])
               | st.integers(-10**30, 10**30).map(str))
FACE = st.sampled_from(["v", "w", "alpha", "beta", ""])
# malformed pieces: other letters and faces, bad fractions and exponents
BAD_COEFFICIENT = st.sampled_from(["1/0", "2/-3", "1/", "/2"])
BAD_FACE = st.sampled_from(["v_alpha", "q", "0", " v ", "v]", "v[", "["])
BAD_LETTER = st.sampled_from("yzwX")
BAD_POWER = st.sampled_from(["^", "^-1", "^x", "^^2"])


@st.composite
def terms(draw, malformed=False):
    """One term whose exponents sum to at most 40 (a run-time cap only)."""
    def piece(good, bad):
        return draw(good | bad if malformed else good)

    budget = draw(st.integers(0, 40))
    factors = []
    for _ in range(draw(st.integers(0, 3))):
        e = draw(st.integers(0, budget))
        budget -= e
        power = piece(st.sampled_from(["", f"^{e}", f"^{e}"]), BAD_POWER)
        factors.append(f"{piece(st.just('x'), BAD_LETTER)}"
                       f"[{piece(FACE, BAD_FACE)}]{power}")
    if not factors or draw(st.booleans()):
        factors.insert(0, piece(COEFFICIENT, BAD_COEFFICIENT))
    return "*".join(factors)


def sums(malformed):
    ops = st.sampled_from([" + ", "-", " - ", "+-", "*", " "] if malformed
                          else [" + ", " - ", "-"])
    return st.builds(lambda first, rest: first + "".join(o + t for o, t in rest),
                     terms(malformed),
                     st.lists(st.tuples(ops, terms(malformed)), max_size=2))
