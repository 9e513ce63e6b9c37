import itertools
import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from facering import (
    Balancing,
    FieldSpec,
    RingElement,
    barycentric_subdivision,
    build_from_facets,
    compute_basis,
    facet_vector,
    fine_vectors,
    graded_monomials,
    label_selected,
    represent_on_cell_basis,
    subspace_M_S,
    verify_basis,
)
from facering.cm_basis import (
    _columns,
    _incidence,
    default_processing_order,
    selected_facets,
    validate_processing_order,
)
from facering.coeff import normal
from facering.errors import (BasisInvalid, FieldMismatch, InputError,
                             OrderNotCompatible)
from facering.face_ring import ParameterPolynomial
from facering.linalg import RowSpan, row_rank, rref

from conftest import (GF2, GF5, RATIONAL, evaluate_cell_representation,
                      make_disk, simplex_complex)

FIELDS = (RATIONAL, GF2, GF5)


def vec_values(vec):
    return list(vec)


# -- facet vectors --------------------------------------------------------------


def test_facet_vectors_double_edge_sd(double_edge_sd):
    target = double_edge_sd.target
    expect = {"": [1, 1, 1, 1], "v": [1, 0, 1, 0], "alpha": [1, 1, 0, 0],
              "v_alpha": [1, 0, 0, 0]}
    for fid, bits in expect.items():
        assert vec_values(facet_vector(target, fid)) == bits


def test_facet_vectors_disk(disk):
    assert vec_values(facet_vector(disk, "s")) == [1, 0, 0]
    assert vec_values(facet_vector(disk, "epsilon")) == [1, 1, 0]
    # the vertex t is incident to the last two facets
    assert vec_values(facet_vector(disk, "t")) == [0, 1, 1]


def test_facet_vector_of_facet_is_unit(disk):
    for i, eps in enumerate(disk.facets):
        v = vec_values(facet_vector(disk, eps))
        assert v == [1 if j == i else 0 for j in range(len(disk.facets))]


@pytest.mark.parametrize("case", ["sd-tetrahedron", "disk"])
def test_sparse_incidence_matches_dense_facet_vector(case, disk, disk_balancing):
    if case == "disk":
        c, bal = disk, disk_balancing
    else:
        sd = barycentric_subdivision(build_from_facets([["0", "1", "2", "3"]]))
        c, bal = sd.target, sd.balancing
    facet_lists = [c.facets] + [
        selected_facets(bal, frozenset(s)) for r in range(bal.n + 1)
        for s in itertools.combinations(range(1, bal.n + 1), r)]
    for facets in facet_lists:
        columns = _columns(facets)
        for f in range(len(c)):
            dense = [1 if c.leq(f, eps) else 0 for eps in facets]
            row = _incidence(c, f, columns)
            assert [row.get(j, 0) for j in range(len(facets))] == dense
            if facets is c.facets:
                assert vec_values(facet_vector(c, f)) == dense


def test_facet_vector_requires_pure():
    mixed = build_from_facets([["a", "b"], ["c"]])
    with pytest.raises(InputError):
        facet_vector(mixed, "c")


# -- the basis algorithm ----------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_basis_double_edge_sd(double_edge_sd, field):
    verdict = compute_basis(double_edge_sd.balancing, field)
    assert verdict.cohen_macaulay
    names = [double_edge_sd.target.ids[m] for m in verdict.basis.members]
    assert names == ["", "v", "alpha", "v_alpha"]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_disjoint_edges_not_cm(disjoint_edges, disjoint_edges_balancing, field):
    order = ["", "a", "b", "c", "d", "a,c", "b,d"]
    verdict = compute_basis(disjoint_edges_balancing, field, order=order)
    assert not verdict.cohen_macaulay
    assert disjoint_edges.ids[verdict.witness] == "c"
    rep = [(disjoint_edges.ids[m], c) for m, c in verdict.representation]
    assert rep == [("a", 1)]
    # the witness's facet vector is reproduced exactly by the representation
    target = facet_vector(disjoint_edges, "c")
    combo = [0] * len(target)
    for m, c in verdict.representation:
        row = facet_vector(disjoint_edges, m)
        combo = [normal(acc + c * x, field.p) for acc, x in zip(combo, row)]
    assert combo == list(target)


def test_disk_basis(disk, disk_balancing):
    order = ["", "s", "t", "u", "v", "alpha", "beta", "gamma", "delta",
             "epsilon", "zeta", "P", "Q", "R"]
    for sequence in (order, None):
        verdict = compute_basis(disk_balancing, RATIONAL, order=sequence)
        assert verdict.cohen_macaulay
        labelled = [(disk.ids[m], tuple(sorted(disk_balancing.label_sets[m])))
                    for m in verdict.basis.members]
        assert labelled == [("", ()), ("s", (1,)), ("epsilon", (2, 3))]


def test_incompatible_order_rejected(disjoint_edges_balancing):
    with pytest.raises(OrderNotCompatible):
        compute_basis(disjoint_edges_balancing, RATIONAL,
                      order=["", "a,c", "a", "b", "c", "d", "b,d"])
    with pytest.raises(OrderNotCompatible):
        compute_basis(disjoint_edges_balancing, RATIONAL,
                      order=["", "a", "b", "c", "d", "a,c"])


def test_order_violation_matches_quadratic_reference():
    sd = barycentric_subdivision(build_from_facets([["0", "1", "2", "3"]]))
    c, bal = sd.target, sd.balancing

    def reference(order):
        for i in range(len(order)):
            for j in range(i + 1, len(order)):
                a, b = order[i], order[j]
                if bal.label_sets[b] < bal.label_sets[a]:
                    return (f"face {c.ids[b]!r} must be processed before "
                            f"{c.ids[a]!r}: its label set is strictly smaller")
        return None

    rng = random.Random(3)
    compatible = default_processing_order(bal)
    for trial in range(40):
        order = list(compatible)
        if trial % 2:
            rng.shuffle(order)
        else:
            # a few swaps of a compatible order put the first violation late
            for _ in range(trial // 8):
                i, j = rng.sample(range(len(order)), 2)
                order[i], order[j] = order[j], order[i]
        expected = reference(order)
        if expected is None:
            assert validate_processing_order(bal, order) == order
            continue
        with pytest.raises(OrderNotCompatible) as info:
            validate_processing_order(bal, order)
        assert str(info.value) == expected


def _random_compatible_order(c, balancing, rng):
    # random topological shuffle of the label-set containment order: a face
    # is ready once no remaining face has a strictly smaller label set
    remaining = set(range(len(c)))
    left = Counter(balancing.label_sets[f] for f in remaining)
    order = []
    while remaining:
        blocked = {s for s in left if any(left[t] for t in left if t < s)}
        ready = [f for f in remaining if balancing.label_sets[f] not in blocked]
        pick = rng.choice(sorted(ready))
        order.append(pick)
        remaining.remove(pick)
        left[balancing.label_sets[pick]] -= 1
    return order


def test_verdict_invariant_over_compatible_orders(
        double_edge, double_edge_balancing, double_edge_sd, disk,
        disk_balancing, disjoint_edges, disjoint_edges_balancing, triangle_sd):
    rng = random.Random(42)
    cases = [
        (double_edge, double_edge_balancing),
        (disk, disk_balancing),
        (disjoint_edges, disjoint_edges_balancing),
        (double_edge_sd.target, double_edge_sd.balancing),
        (triangle_sd.target, triangle_sd.balancing),
    ]
    for c, bal in cases:
        reference = compute_basis(bal, RATIONAL).cohen_macaulay
        for _ in range(10):
            order = _random_compatible_order(c, bal, rng)
            validate_processing_order(bal, order)
            verdict = compute_basis(bal, RATIONAL, order=order)
            assert verdict.cohen_macaulay == reference
            if verdict.cohen_macaulay:
                report = verify_basis(bal, RATIONAL,
                                      [c.ids[m] for m in verdict.basis.members])
                assert report.valid


def _reference_verdict(c, bal, field, order, early_exit):
    """The facet-vector test as it was first written: every processed face
    goes into one span of facet vectors that tracks combinations, and a
    dependent face is a witness when its representation uses a member whose
    label set is not inside its own.  (verdict, members, witness,
    representation)."""
    m = len(c.facets)
    columns = _columns(c.facets)
    full = frozenset(range(1, bal.n + 1))
    span = RowSpan(field, m)
    members = []
    for pos, face in enumerate(order):
        if (early_exit and len(span.rows) == m
                and all(bal.label_sets[g] == full for g in order[pos:])):
            break
        rep = span.insert(face, _incidence(c, face, columns))
        if rep is None:
            members.append(face)
        elif any(not bal.label_sets[b] <= bal.label_sets[face] for b in rep):
            return False, members, face, [(b, rep[b]) for b in members
                                          if b in rep]
    return True, members, None, None


GF3 = FieldSpec.gf(3)


@st.composite
def balanced_complexes(draw):
    """The colored disk with its balancing, or the subdivision of 2-3 random
    facets of one dimension 1..3 (some not Cohen-Macaulay)."""
    if draw(st.integers(0, 5)) == 0:
        disk = make_disk()
        return disk, Balancing(disk, {"s": 1, "t": 1, "u": 2, "v": 3})
    d = draw(st.integers(1, 3))
    names = [str(i) for i in range(d + 3)]
    facets = draw(st.lists(st.lists(st.sampled_from(names), min_size=d + 1,
                                    max_size=d + 1, unique=True),
                           min_size=2, max_size=2 if d == 3 else 3,
                           unique_by=frozenset))
    sd = barycentric_subdivision(build_from_facets(facets))
    return sd.target, sd.balancing


# sd of the 4-simplex, the largest complex of the benchmark's cm workload;
# one such example takes about 0.3 s, above Hypothesis's default deadline
SD4 = barycentric_subdivision(simplex_complex(4))


@settings(max_examples=200, deadline=None)
@given(balanced_complexes(), st.sampled_from([RATIONAL, GF2, GF3]),
       st.booleans(), st.randoms(use_true_random=False))
@example((SD4.target, SD4.balancing), RATIONAL, True, random.Random(4))
@example((SD4.target, SD4.balancing), GF2, False, random.Random(4))
@example((SD4.target, SD4.balancing), FieldSpec.gf(32003), True, random.Random(4))
def test_label_set_restricted_test_matches_combination_tracking(
        case, field, early_exit, rng):
    c, bal = case
    # compute_basis always stops at the first facet met with the span full;
    # the reference runs with and without that stop, as drawn
    order = _random_compatible_order(c, bal, rng)
    verdict = compute_basis(bal, field, order=order)
    cm, members, witness, representation = _reference_verdict(
        c, bal, field, order, early_exit)
    assert verdict.cohen_macaulay == cm
    assert verdict.witness == witness
    assert verdict.representation == representation
    if cm:
        assert list(verdict.basis.members) == members


def test_processed_faces_cover_smaller_label_sets(double_edge_sd, disk,
                                                  disk_balancing):
    # when a face comes up, the spans of all strictly smaller label sets are
    # already inside the span of the members processed before it
    cases = [(double_edge_sd.target, double_edge_sd.balancing),
             (disk, disk_balancing)]
    for c, bal in cases:
        m_rows = {}
        for r in range(bal.n + 1):
            for s in itertools.combinations(range(1, bal.n + 1), r):
                m_rows[frozenset(s)] = subspace_M_S(bal, RATIONAL, s)
        members = set(compute_basis(bal, RATIONAL).basis.members)
        columns = _columns(c.facets)
        span = RowSpan(RATIONAL, len(c.facets))
        for face in default_processing_order(bal):
            for t, rows in m_rows.items():
                if t < bal.label_sets[face]:
                    for row in rows:
                        assert span.represent(dict(enumerate(row))) is not None
            if face in members:
                span.insert(face, _incidence(c, face, columns))


def test_subdivision_of_nonsimplicial_disk(disk, disk_balancing):
    # subdividing a complex with parallel edges exercises the chain machinery
    # on a non-simplicial source; each facet contributes 3! maximal chains
    sd = barycentric_subdivision(disk)
    assert len(sd.target.facets) == sum(factorial(disk.rank[f])
                                        for f in disk.facets) == 18
    verdict = compute_basis(sd.balancing, RATIONAL)
    assert verdict.cohen_macaulay
    _, h = fine_vectors(sd.balancing)
    counts = {s: 0 for s in h}
    for m in verdict.basis.members:
        counts[tuple(sorted(sd.balancing.label_sets[m]))] += 1
    assert counts == h and len(verdict.basis.members) == 18
    for d in range(3):
        for m in graded_monomials(sd.target, degree=d):
            f = RingElement.monomial(sd.target, RATIONAL, m)
            rep = represent_on_cell_basis(verdict.basis, f)
            assert evaluate_cell_representation(verdict.basis, rep) == f


def test_basis_of_a_point():
    point = build_from_facets([["x"]])
    bal = Balancing(point, {"x": 1})
    verdict = compute_basis(bal, RATIONAL)
    assert verdict.cohen_macaulay
    assert [point.ids[m] for m in verdict.basis.members] == [""]


# -- verify_basis -------------------------------------------------------------------


def test_verify_basis_examples(double_edge_sd):
    bal = double_edge_sd.balancing
    assert verify_basis(bal, RATIONAL, ["", "v", "alpha", "v_alpha"]).valid
    assert verify_basis(bal, RATIONAL, ["", "w", "alpha", "v_alpha"]).valid
    report = verify_basis(bal, RATIONAL, ["", "v", "w", "v_alpha"])
    assert not report.valid
    diag = report.per_label_set[(1,)]
    assert diag["members"] == 3 and diag["facets"] == 2 and not diag["square"]


def test_verify_accepts_algorithm_output(disk, disk_balancing, triangle_sd):
    for c, bal in [(disk, disk_balancing),
                   (triangle_sd.target, triangle_sd.balancing)]:
        verdict = compute_basis(bal, RATIONAL)
        assert verify_basis(bal, RATIONAL,
                            [c.ids[m] for m in verdict.basis.members]).valid


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_named_complexes_cm_in_every_test_characteristic(
        double_edge, double_edge_balancing, double_edge_sd, disk,
        disk_balancing, triangle_sd, field):
    # pinned by the round-trip property, not asserted a priori: representing
    # and re-evaluating low-degree monomials reproduces them over each field
    cases = [(double_edge, double_edge_balancing, 4),
             (disk, disk_balancing, 3),
             (double_edge_sd.target, double_edge_sd.balancing, 4),
             (triangle_sd.target, triangle_sd.balancing, 3)]
    for c, bal, bound in cases:
        verdict = compute_basis(bal, field)
        assert verdict.cohen_macaulay
        for d in range(bound + 1):
            for m in graded_monomials(c, degree=d):
                f = RingElement.monomial(c, field, m)
                rep = represent_on_cell_basis(verdict.basis, f)
                assert evaluate_cell_representation(verdict.basis, rep) == f


# -- subspaces ----------------------------------------------------------------------


def test_subspace_M_S_disk(disk, disk_balancing):
    got = subspace_M_S(disk_balancing, RATIONAL, [1])
    expected = rref([dict(enumerate(facet_vector(disk, f)))
                     for f in ("s", "t")], RATIONAL, 3)
    assert [vec_values(r) for r in got] == [vec_values(r) for r in expected]
    got23 = subspace_M_S(disk_balancing, RATIONAL, [2, 3])
    expected23 = rref([dict(enumerate(facet_vector(disk, f)))
                       for f in ("epsilon", "zeta")], RATIONAL, 3)
    assert [vec_values(r) for r in got23] == [vec_values(r) for r in expected23]
    assert [vec_values(r) for r in subspace_M_S(disk_balancing, RATIONAL, [])] \
        == [[1, 1, 1]]


def test_subspace_dimensions_decompose_when_cm(disk_balancing, double_edge_sd,
                                               triangle_sd):
    for bal in [disk_balancing, double_edge_sd.balancing, triangle_sd.balancing]:
        verdict = compute_basis(bal, RATIONAL)
        assert verdict.cohen_macaulay
        by_set = {}
        for m in verdict.basis.members:
            key = frozenset(bal.label_sets[m])
            by_set[key] = by_set.get(key, 0) + 1
        for r in range(bal.n + 1):
            for s in itertools.combinations(range(1, bal.n + 1), r):
                dim = len(subspace_M_S(bal, RATIONAL, s))
                inner = sum(count for t, count in by_set.items()
                            if t <= frozenset(s))
                assert dim == inner


def test_member_counts_match_fine_h_vector(disk_balancing, double_edge_balancing,
                                           double_edge_sd, triangle_sd):
    for bal in [disk_balancing, double_edge_balancing, double_edge_sd.balancing,
                triangle_sd.balancing]:
        verdict = compute_basis(bal, RATIONAL)
        assert verdict.cohen_macaulay
        _, h = fine_vectors(bal)
        counts = {s: 0 for s in h}
        for m in verdict.basis.members:
            counts[tuple(sorted(bal.label_sets[m]))] += 1
        assert counts == h


# -- representation on a cell basis ------------------------------------------------


def poly(n, terms):
    return ParameterPolynomial(n, RATIONAL, terms)


def test_representation_golden(double_edge_sd):
    target, bal = double_edge_sd.target, double_edge_sd.balancing
    verdict = compute_basis(bal, RATIONAL)
    basis = verdict.basis
    # y_w^2 y_beta in cell form is z_w * z_{w beta}
    f = RingElement.monomial(target, RATIONAL, (
        (target.resolve("w"), 1), (target.resolve("w_beta"), 1)))
    rep = represent_on_cell_basis(basis, f)
    expected = {
        "": poly(2, {(2, 1): 1}),
        "v": poly(2, {(1, 1): -1}),
        "alpha": poly(2, {(2, 0): -1}),
        "v_alpha": poly(2, {(1, 0): 1}),
    }
    assert {target.ids[m]: p for m, p in rep.items()} == expected
    assert evaluate_cell_representation(basis, rep) == f


def test_representation_of_member_is_trivial(double_edge_sd):
    target, bal = double_edge_sd.target, double_edge_sd.balancing
    basis = compute_basis(bal, RATIONAL).basis
    for member in basis.members:
        f = RingElement.monomial(target, RATIONAL, ((member, 1),))
        rep = represent_on_cell_basis(basis, f)
        for other, p in rep.items():
            if other == member:
                assert p == poly(2, {(0, 0): 1})
            else:
                assert p.is_zero


def test_representation_golden_z_wbeta(double_edge_sd):
    target, bal = double_edge_sd.target, double_edge_sd.balancing
    basis = compute_basis(bal, RATIONAL).basis
    f = RingElement.monomial(target, RATIONAL, ((target.resolve("w_beta"), 1),))
    rep = represent_on_cell_basis(basis, f)
    expected = {
        "": poly(2, {(1, 1): 1}),
        "v": poly(2, {(0, 1): -1}),
        "alpha": poly(2, {(1, 0): -1}),
        "v_alpha": poly(2, {(0, 0): 1}),
    }
    assert {target.ids[m]: p for m, p in rep.items()} == expected


def test_representation_roundtrip(disk, disk_balancing, double_edge_sd):
    cases = [(disk, disk_balancing, 4), (double_edge_sd.target,
                                         double_edge_sd.balancing, 6)]
    for c, bal, bound in cases:
        basis = compute_basis(bal, RATIONAL).basis
        for d in range(bound + 1):
            for m in graded_monomials(c, degree=d):
                f = RingElement.monomial(c, RATIONAL, m)
                rep = represent_on_cell_basis(basis, f)
                assert evaluate_cell_representation(basis, rep) == f


def test_representation_rejects_broken_basis(double_edge_sd):
    target, bal = double_edge_sd.target, double_edge_sd.balancing
    from facering.cm_basis import CellBasis
    broken = CellBasis(bal, RATIONAL,
                       [target.resolve(f) for f in ("", "v", "w", "v_alpha")])
    f = RingElement.monomial(target, RATIONAL, ((target.resolve("alpha"), 1),))
    with pytest.raises(BasisInvalid):
        represent_on_cell_basis(broken, f)


def test_representation_checks_element_against_basis(double_edge, double_edge_sd):
    target, bal = double_edge_sd.target, double_edge_sd.balancing
    basis = compute_basis(bal, RATIONAL).basis
    v = ((target.resolve("v"), 1),)
    with pytest.raises(InputError, match="face ring of this complex"):
        represent_on_cell_basis(basis, RingElement.monomial(
            double_edge, RATIONAL, ((double_edge.resolve("v"), 1),)))
    with pytest.raises(InputError, match="face ring of this complex"):
        represent_on_cell_basis(basis, RingElement(target, RATIONAL, True, {v: 1}))
    with pytest.raises(FieldMismatch):
        represent_on_cell_basis(basis, RingElement.monomial(target, GF5, v))


@pytest.mark.parametrize("field", [RATIONAL, GF5], ids=str)
@pytest.mark.parametrize("case", ["double edge", "triangle"])
def test_evaluation_reads_complex_and_field_off_the_basis(case, field,
                                                         double_edge_sd,
                                                         triangle_sd):
    sd = {"double edge": double_edge_sd, "triangle": triangle_sd}[case]
    basis = compute_basis(sd.balancing, field).basis
    zero = RingElement(sd.target, field, False, {})
    assert evaluate_cell_representation(basis, {}) == zero
    assert evaluate_cell_representation(
        basis, represent_on_cell_basis(basis, zero)) == zero
    monos = [m for d in range(4) for m in graded_monomials(sd.target, degree=d)]
    f = RingElement(sd.target, field, False,
                    {m: i - 3 for i, m in enumerate(monos)})
    assert evaluate_cell_representation(
        basis, represent_on_cell_basis(basis, f)) == f


# -- linear algebra helper -----------------------------------------------------------


def test_rref_canonical_under_row_shuffle():
    rng = random.Random(5)
    for _ in range(20):
        width = rng.randint(2, 5)
        rows = [dict(enumerate(rng.randint(-3, 3) for _ in range(width)))
                for _ in range(rng.randint(1, 5))]
        reference = rref(rows, RATIONAL, width)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        again = rref(shuffled, RATIONAL, width)
        assert reference == again


def test_rowspan_representation_roundtrip():
    rng = random.Random(11)
    for _ in range(20):
        width = rng.randint(2, 5)
        span = RowSpan(RATIONAL, width)
        vectors = {}
        for tag in range(rng.randint(2, 6)):
            vec = [rng.randint(-3, 3) for _ in range(width)]
            if span.insert(tag, dict(enumerate(vec))) is None:
                vectors[tag] = vec
        # a random combination must be recognized with exact coefficients
        coeffs = {tag: rng.randint(-4, 4) for tag in vectors}
        combo = [0] * width
        for tag, c in coeffs.items():
            combo = [acc + c * x for acc, x in zip(combo, vectors[tag])]
        rep = span.represent(dict(enumerate(combo)))
        assert rep is not None
        for tag, c in coeffs.items():
            assert rep.get(tag, 0) == c or (c == 0 and tag not in rep)


def _dense_solve(vectors, vec, p):
    """Reference: coefficients c with sum c[i] * vectors[i] == vec by dense
    Gauss-Jordan elimination on raw values, or None when vec is outside."""
    def div(a, b):
        return a / b if p is None else a * pow(b, -1, p) % p

    def sub(a, b):
        return a - b if p is None else (a - b) % p

    n = len(vectors)
    m = [[vectors[i][j] for i in range(n)] + [vec[j]] for j in range(len(vec))]
    row = 0
    pivots = []
    for col in range(n):
        r = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if r is None:
            continue
        m[row], m[r] = m[r], m[row]
        m[row] = [div(x, m[row][col]) for x in m[row]]
        for k in range(len(m)):
            if k != row and m[k][col] != 0:
                f = m[k][col]
                m[k] = [sub(a, f * b) for a, b in zip(m[k], m[row])]
        pivots.append(col)
        row += 1
    if any(m[r][n] != 0 for r in range(row, len(m))):
        return None
    coeffs = [0] * n
    for r, col in enumerate(pivots):
        coeffs[col] = m[r][n]
    return coeffs


@pytest.mark.parametrize("field", [RATIONAL, GF2, FieldSpec.gf(32003)], ids=str)
def test_rowspan_matches_dense_reference(field):
    rng = random.Random(23)
    p = field.p
    non_integral = 0

    def scalar():
        if p is None:
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return rng.randrange(p)

    for _ in range(40):
        width = rng.randint(1, 6)
        span = RowSpan(field, width)
        twin = RowSpan(field, width)  # fed each vector unnormalized
        independent = []  # (tag, raw vector) in insertion order
        for tag in range(rng.randint(1, 9)):
            if independent and rng.random() < 0.4:
                # a combination of earlier vectors, so dependence is common
                vec = [0] * width
                for _, v in independent:
                    c = scalar()
                    vec = [a + c * b if p is None else (a + c * b) % p
                           for a, b in zip(vec, v)]
            else:
                vec = [scalar() if rng.random() < 0.6 else 0
                       for _ in range(width)]
            non_integral += sum(1 for x in vec
                                if p is None and Fraction(x).denominator != 1)
            elements = {j: normal(Fraction(x), p) for j, x in enumerate(vec) if x}
            # the same vector with zeros and integral Fractions left in
            # must give the same answers
            row = dict(enumerate(vec))
            expected = _dense_solve([v for _, v in independent], vec, p)
            rep = span.represent(elements)
            assert (rep is not None) == (expected is not None)
            assert twin.represent(row) == rep
            got = span.insert(tag, elements)
            assert twin.insert(tag, row) == got == rep
            if expected is None:
                assert got is None
                independent.append((tag, vec))
                continue
            assert got == {t: normal(Fraction(c), p)
                           for (t, _), c in zip(independent, expected) if c != 0}
            assert all(normal(c, p) == c for c in got.values())
        assert len(span.rows) == len(twin.rows) == len(independent)
        with pytest.raises(ValueError):
            twin.reduce({width: 1})
    if p is None:
        assert non_integral > 0


def _dense_rref(rows, width, p):
    """Gauss-Jordan on dense lists: the reference for rref."""
    if p is None:
        m = [[normal(row.get(j, 0), None) for j in range(width)]
             for row in rows]
        inv = lambda x: Fraction(1) / x
    else:
        m = [[normal(row.get(j, 0), p) for j in range(width)] for row in rows]
        inv = lambda x: pow(x, -1, p)
    reduce = lambda x: normal(x, p)
    top = 0
    for col in range(width):
        r = next((i for i in range(top, len(m)) if m[i][col] != 0), None)
        if r is None:
            continue
        m[top], m[r] = m[r], m[top]
        scale = inv(m[top][col])
        m[top] = [reduce(scale * x) for x in m[top]]
        for k in range(len(m)):
            if k != top and m[k][col] != 0:
                f = m[k][col]
                m[k] = [reduce(a - f * b) for a, b in zip(m[k], m[top])]
        top += 1
    return [[reduce(x) for x in row] for row in m[:top]]


@st.composite
def _sparse_rows(draw, p):
    """Up to 8 sparse rows of ints and Fractions, plus sums of pairs of them,
    so that dependent rows are common."""
    width = draw(st.integers(1, 6))

    def scalar(nd):
        num, den = nd
        if p is not None and den % p == 0:
            den = 1
        return num if den == 1 else Fraction(num, den)

    entry = st.tuples(st.integers(-4, 4), st.integers(1, 4)).map(scalar)
    rows = draw(st.lists(st.dictionaries(st.integers(0, width - 1), entry,
                                         max_size=width), max_size=8))
    for i, j in draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                              max_size=3)):
        if rows:
            a, b = rows[i % len(rows)], rows[j % len(rows)]
            rows.append({k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b})
    return width, rows


@pytest.mark.parametrize("field", [RATIONAL, GF2, GF5, FieldSpec.gf(32003)],
                         ids=str)
def test_row_rank_and_rref_match_references(field):
    @given(_sparse_rows(field.p))
    def check(case):
        width, rows = case
        span = RowSpan(field, width)
        for i, row in enumerate(rows):
            span.insert(i, row)
        assert row_rank(rows, field, width) == len(span.rows)
        assert rref(rows, field, width) == _dense_rref(rows, width, field.p)

    check()


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("case", ["double-edge", "triangle"])
def test_face_memo_bounded_and_fresh(case, field, double_edge_sd, triangle_sd):
    sd = double_edge_sd if case == "double-edge" else triangle_sd
    target, bal = sd.target, sd.balancing
    basis = compute_basis(bal, field).basis
    for d in range(4):
        for mono in graded_monomials(target, degree=d):
            basis.represent_monomial(mono)
            assert len(basis._by_face) <= len(target)
    assert len(basis._by_face) == len(target)  # every face is some monomial's top
    for face, entry in basis._by_face.items():
        labels = bal.label_sets[face]
        members = [m for m in basis.members if bal.label_sets[m] <= labels]
        columns = _columns(selected_facets(bal, labels))
        fresh = RowSpan(field, len(columns[1]))
        for m in members:
            assert fresh.insert(m, _incidence(target, m, columns)) is None
        expected = fresh.represent(_incidence(target, face, columns))
        assert {m: c for m, _, c in entry} == expected
        for m, member_labels, _ in entry:
            assert member_labels == tuple(int(j in bal.label_sets[m])
                                          for j in range(1, bal.n + 1))


def test_concurrent_readers_share_cell_basis_memos(triangle_sd):
    """Four threads representing monomials on one fresh basis get the
    single-thread results: its memos never expose a partial value."""
    target, bal = triangle_sd.target, triangle_sd.balancing
    monos = [m for d in range(4) for m in graded_monomials(target, degree=d)]
    reference = compute_basis(bal, GF5).basis
    expected = [reference.represent_monomial(m) for m in monos]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to interleave writes
    try:
        for _ in range(5):
            shared = compute_basis(bal, GF5).basis
            barrier = threading.Barrier(4)
            results, errors = [[None] * len(monos) for _ in range(4)], []

            def reader(i):
                try:
                    barrier.wait(timeout=60)
                    for k in range(len(monos)):
                        j = (k + i * len(monos) // 4) % len(monos)
                        results[i][j] = shared.represent_monomial(monos[j])
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
            assert len(shared._by_face) == len(target)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("case", ["sd-tetrahedron", "disk"])
def test_selected_facets_are_label_selected_facets(case, disk, disk_balancing):
    if case == "disk":
        c, bal = disk, disk_balancing
    else:
        sd = barycentric_subdivision(build_from_facets([["0", "1", "2", "3"]]))
        c, bal = sd.target, sd.balancing
    basis = compute_basis(bal, RATIONAL).basis
    for r in range(bal.n + 1):
        for s in itertools.combinations(range(1, bal.n + 1), r):
            sub = label_selected(bal, s)
            expected = [c.index_of[sub.ids[f]] for f in sub.facets]
            assert selected_facets(bal, frozenset(s)) == expected
            assert basis.selected(s).facets == expected
    with pytest.raises(InputError, match=rf"label set \[1, {bal.n + 1}\] is not inside"):
        basis.selected({1, bal.n + 1})
