import itertools
import random
from fractions import Fraction

import pytest

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
    evaluate_cell_representation,
    selected_facets,
    validate_processing_order,
)
from facering.coeff import normal
from facering.errors import BasisInvalid, InputError, OrderNotCompatible
from facering.face_ring import ParameterPolynomial
from facering.linalg import RowSpan, rref

from conftest import GF2, GF5, RATIONAL

FIELDS = (RATIONAL, GF2, GF5)


def vec_values(vec):
    return list(vec)


# -- facet vectors --------------------------------------------------------------


def test_facet_vectors_double_edge_sd(double_edge_sd):
    target = double_edge_sd.target
    expect = {"": [1, 1, 1, 1], "v": [1, 0, 1, 0], "alpha": [1, 1, 0, 0],
              "v_alpha": [1, 0, 0, 0]}
    for fid, bits in expect.items():
        assert vec_values(facet_vector(target, fid, RATIONAL)) == bits


def test_facet_vectors_disk(disk):
    assert vec_values(facet_vector(disk, "s", RATIONAL)) == [1, 0, 0]
    assert vec_values(facet_vector(disk, "epsilon", RATIONAL)) == [1, 1, 0]
    # the vertex t is incident to the last two facets
    assert vec_values(facet_vector(disk, "t", RATIONAL)) == [0, 1, 1]


def test_facet_vector_of_facet_is_unit(disk):
    for i, eps in enumerate(disk.facets):
        v = vec_values(facet_vector(disk, eps, RATIONAL))
        assert v == [1 if j == i else 0 for j in range(len(disk.facets))]


@pytest.mark.parametrize("case", ["sd-tetrahedron", "disk"])
def test_sparse_incidence_matches_dense_facet_vector(case, disk, disk_balancing):
    if case == "disk":
        c, bal = disk, disk_balancing
    else:
        sd = barycentric_subdivision(build_from_facets([["0", "1", "2", "3"]]))
        c, bal = sd.target, sd.balancing
    facet_lists = [c.facets] + [
        selected_facets(c, bal, frozenset(s)) for r in range(bal.n + 1)
        for s in itertools.combinations(range(1, bal.n + 1), r)]
    for facets in facet_lists:
        columns = _columns(facets)
        for f in range(len(c)):
            dense = [1 if c.leq(f, eps) else 0 for eps in facets]
            row = _incidence(c, f, columns)
            assert [row.get(j, 0) for j in range(len(facets))] == dense
            if facets is c.facets:
                assert vec_values(facet_vector(c, f, RATIONAL)) == dense


def test_facet_vector_requires_pure():
    mixed = build_from_facets([["a", "b"], ["c"]])
    with pytest.raises(InputError):
        facet_vector(mixed, "c", RATIONAL)


# -- the basis algorithm ----------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_basis_double_edge_sd(double_edge_sd, field):
    verdict = compute_basis(double_edge_sd.target, double_edge_sd.balancing, field)
    assert verdict.cohen_macaulay
    names = [double_edge_sd.target.ids[m] for m in verdict.basis.members]
    assert names == ["", "v", "alpha", "v_alpha"]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_disjoint_edges_not_cm(disjoint_edges, disjoint_edges_balancing, field):
    order = ["", "a", "b", "c", "d", "a,c", "b,d"]
    verdict = compute_basis(disjoint_edges, disjoint_edges_balancing, field,
                            order=order)
    assert not verdict.cohen_macaulay
    assert disjoint_edges.ids[verdict.witness] == "c"
    rep = [(disjoint_edges.ids[m], c) for m, c in verdict.representation]
    assert rep == [("a", 1)]
    # the witness's facet vector is reproduced exactly by the representation
    target = facet_vector(disjoint_edges, "c", field)
    combo = [0] * len(target)
    for m, c in verdict.representation:
        row = facet_vector(disjoint_edges, m, field)
        combo = [normal(acc + c * x, field.p) for acc, x in zip(combo, row)]
    assert combo == list(target)


def test_disk_basis(disk, disk_balancing):
    order = ["", "s", "t", "u", "v", "alpha", "beta", "gamma", "delta",
             "epsilon", "zeta", "P", "Q", "R"]
    for sequence in (order, None):
        verdict = compute_basis(disk, disk_balancing, RATIONAL, order=sequence)
        assert verdict.cohen_macaulay
        labelled = [(disk.ids[m], tuple(sorted(disk_balancing.label_set(m))))
                    for m in verdict.basis.members]
        assert labelled == [("", ()), ("s", (1,)), ("epsilon", (2, 3))]


def test_incompatible_order_rejected(disjoint_edges, disjoint_edges_balancing):
    with pytest.raises(OrderNotCompatible):
        compute_basis(disjoint_edges, disjoint_edges_balancing, RATIONAL,
                      order=["", "a,c", "a", "b", "c", "d", "b,d"])
    with pytest.raises(OrderNotCompatible):
        compute_basis(disjoint_edges, disjoint_edges_balancing, RATIONAL,
                      order=["", "a", "b", "c", "d", "a,c"])


def test_order_violation_matches_quadratic_reference():
    sd = barycentric_subdivision(build_from_facets([["0", "1", "2", "3"]]))
    c, bal = sd.target, sd.balancing

    def reference(order):
        for i in range(len(order)):
            for j in range(i + 1, len(order)):
                a, b = order[i], order[j]
                if bal.label_set(b) < bal.label_set(a):
                    return (f"face {c.ids[b]!r} must be processed before "
                            f"{c.ids[a]!r}: its label set is strictly smaller")
        return None

    rng = random.Random(3)
    compatible = default_processing_order(c, bal)
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
            assert validate_processing_order(c, bal, order) == order
            continue
        with pytest.raises(OrderNotCompatible) as info:
            validate_processing_order(c, bal, order)
        assert str(info.value) == expected


def _random_compatible_order(c, balancing, rng):
    faces = list(range(len(c)))
    # random topological shuffle of the label-set containment order
    remaining = set(faces)
    order = []
    while remaining:
        ready = [f for f in remaining
                 if not any(balancing.label_set(g) < balancing.label_set(f)
                            for g in remaining if g != f)]
        pick = rng.choice(sorted(ready))
        order.append(pick)
        remaining.remove(pick)
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
        reference = compute_basis(c, bal, RATIONAL).cohen_macaulay
        for _ in range(10):
            order = _random_compatible_order(c, bal, rng)
            validate_processing_order(c, bal, order)
            verdict = compute_basis(c, bal, RATIONAL, order=order)
            assert verdict.cohen_macaulay == reference
            if verdict.cohen_macaulay:
                report = verify_basis(c, bal, RATIONAL,
                                      [c.ids[m] for m in verdict.basis.members])
                assert report.valid


def test_early_exit_matches_full_processing(
        double_edge_sd, disk, disk_balancing, triangle_sd):
    cases = [(double_edge_sd.target, double_edge_sd.balancing),
             (disk, disk_balancing),
             (triangle_sd.target, triangle_sd.balancing)]
    for c, bal in cases:
        fast = compute_basis(c, bal, RATIONAL, early_exit=True)
        slow = compute_basis(c, bal, RATIONAL, early_exit=False)
        assert fast.cohen_macaulay == slow.cohen_macaulay
        assert fast.basis.members == slow.basis.members


def test_processed_faces_cover_smaller_label_sets(double_edge_sd, disk,
                                                  disk_balancing):
    # when a face comes up, the spans of all strictly smaller label sets are
    # already inside the tracked subspace
    cases = [(double_edge_sd.target, double_edge_sd.balancing),
             (disk, disk_balancing)]
    for c, bal in cases:
        m_rows = {}
        for r in range(bal.n + 1):
            for s in itertools.combinations(range(1, bal.n + 1), r):
                m_rows[frozenset(s)] = subspace_M_S(c, bal, RATIONAL, s)

        def check(face, span):
            for t, rows in m_rows.items():
                if t < bal.label_set(face):
                    for row in rows:
                        assert span.contains(dict(enumerate(row)))

        compute_basis(c, bal, RATIONAL, early_exit=False, trace=check)


def test_subdivision_of_nonsimplicial_disk(disk, disk_balancing):
    # subdividing a complex with parallel edges exercises the chain machinery
    # on a non-simplicial source; each facet contributes 3! maximal chains
    sd = barycentric_subdivision(disk)
    assert len(sd.target.facets) == disk.maximal_chain_count == 18
    verdict = compute_basis(sd.target, sd.balancing, RATIONAL)
    assert verdict.cohen_macaulay
    _, h = fine_vectors(sd.target, sd.balancing)
    counts = {s: 0 for s in h}
    for m in verdict.basis.members:
        counts[tuple(sorted(sd.balancing.label_set(m)))] += 1
    assert counts == h and len(verdict.basis.members) == 18
    for d in range(3):
        for m in graded_monomials(sd.target, degree=d):
            f = RingElement.monomial(sd.target, RATIONAL, m)
            rep = represent_on_cell_basis(sd.target, sd.balancing, RATIONAL,
                                          verdict.basis, f)
            assert evaluate_cell_representation(sd.target, sd.balancing, rep) == f


def test_basis_of_a_point():
    point = build_from_facets([["x"]])
    bal = Balancing(point, {"x": 1})
    verdict = compute_basis(point, bal, RATIONAL)
    assert verdict.cohen_macaulay
    assert [point.ids[m] for m in verdict.basis.members] == [""]


# -- verify_basis -------------------------------------------------------------------


def test_verify_basis_examples(double_edge_sd):
    target, bal = double_edge_sd.target, double_edge_sd.balancing
    assert verify_basis(target, bal, RATIONAL, ["", "v", "alpha", "v_alpha"]).valid
    assert verify_basis(target, bal, RATIONAL, ["", "w", "alpha", "v_alpha"]).valid
    report = verify_basis(target, bal, RATIONAL, ["", "v", "w", "v_alpha"])
    assert not report.valid
    diag = report.per_label_set[(1,)]
    assert diag["members"] == 3 and diag["facets"] == 2 and not diag["square"]


def test_verify_accepts_algorithm_output(disk, disk_balancing, triangle_sd):
    for c, bal in [(disk, disk_balancing),
                   (triangle_sd.target, triangle_sd.balancing)]:
        verdict = compute_basis(c, bal, RATIONAL)
        assert verify_basis(c, bal, RATIONAL,
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
        verdict = compute_basis(c, bal, field)
        assert verdict.cohen_macaulay
        for d in range(bound + 1):
            for m in graded_monomials(c, degree=d):
                f = RingElement.monomial(c, field, m)
                rep = represent_on_cell_basis(c, bal, field, verdict.basis, f)
                assert evaluate_cell_representation(c, bal, rep) == f


# -- subspaces ----------------------------------------------------------------------


def test_subspace_M_S_disk(disk, disk_balancing):
    got = subspace_M_S(disk, disk_balancing, RATIONAL, [1])
    expected = rref([dict(enumerate(facet_vector(disk, f, RATIONAL)))
                     for f in ("s", "t")], RATIONAL, 3)
    assert [vec_values(r) for r in got] == [vec_values(r) for r in expected]
    got23 = subspace_M_S(disk, disk_balancing, RATIONAL, [2, 3])
    expected23 = rref([dict(enumerate(facet_vector(disk, f, RATIONAL)))
                       for f in ("epsilon", "zeta")], RATIONAL, 3)
    assert [vec_values(r) for r in got23] == [vec_values(r) for r in expected23]
    assert [vec_values(r) for r in subspace_M_S(disk, disk_balancing, RATIONAL, [])] \
        == [[1, 1, 1]]


def test_subspace_dimensions_decompose_when_cm(disk, disk_balancing,
                                               double_edge_sd, triangle_sd):
    cases = [(disk, disk_balancing),
             (double_edge_sd.target, double_edge_sd.balancing),
             (triangle_sd.target, triangle_sd.balancing)]
    for c, bal in cases:
        verdict = compute_basis(c, bal, RATIONAL)
        assert verdict.cohen_macaulay
        by_set = {}
        for m in verdict.basis.members:
            key = frozenset(bal.label_set(m))
            by_set[key] = by_set.get(key, 0) + 1
        for r in range(bal.n + 1):
            for s in itertools.combinations(range(1, bal.n + 1), r):
                dim = len(subspace_M_S(c, bal, RATIONAL, s))
                inner = sum(count for t, count in by_set.items()
                            if t <= frozenset(s))
                assert dim == inner


def test_member_counts_match_fine_h_vector(disk, disk_balancing, double_edge,
                                           double_edge_balancing,
                                           double_edge_sd, triangle_sd):
    cases = [(disk, disk_balancing),
             (double_edge, double_edge_balancing),
             (double_edge_sd.target, double_edge_sd.balancing),
             (triangle_sd.target, triangle_sd.balancing)]
    for c, bal in cases:
        verdict = compute_basis(c, bal, RATIONAL)
        assert verdict.cohen_macaulay
        _, h = fine_vectors(c, bal)
        counts = {s: 0 for s in h}
        for m in verdict.basis.members:
            counts[tuple(sorted(bal.label_set(m)))] += 1
        assert counts == h


# -- representation on a cell basis ------------------------------------------------


def poly(n, terms):
    return ParameterPolynomial(n, RATIONAL, terms)


def test_representation_golden(double_edge_sd):
    target, bal = double_edge_sd.target, double_edge_sd.balancing
    verdict = compute_basis(target, bal, RATIONAL)
    basis = verdict.basis
    # y_w^2 y_beta in cell form is z_w * z_{w beta}
    f = RingElement.monomial(target, RATIONAL, (
        (target.resolve("w"), 1), (target.resolve("w_beta"), 1)))
    rep = represent_on_cell_basis(target, bal, RATIONAL, basis, f)
    expected = {
        "": poly(2, {(2, 1): 1}),
        "v": poly(2, {(1, 1): -1}),
        "alpha": poly(2, {(2, 0): -1}),
        "v_alpha": poly(2, {(1, 0): 1}),
    }
    assert {target.ids[m]: p for m, p in rep.items()} == expected
    assert evaluate_cell_representation(target, bal, rep) == f


def test_representation_of_member_is_trivial(double_edge_sd):
    target, bal = double_edge_sd.target, double_edge_sd.balancing
    basis = compute_basis(target, bal, RATIONAL).basis
    for member in basis.members:
        f = RingElement.monomial(target, RATIONAL, ((member, 1),))
        rep = represent_on_cell_basis(target, bal, RATIONAL, basis, f)
        for other, p in rep.items():
            if other == member:
                assert p == poly(2, {(0, 0): 1})
            else:
                assert p.is_zero


def test_representation_golden_z_wbeta(double_edge_sd):
    target, bal = double_edge_sd.target, double_edge_sd.balancing
    basis = compute_basis(target, bal, RATIONAL).basis
    f = RingElement.monomial(target, RATIONAL, ((target.resolve("w_beta"), 1),))
    rep = represent_on_cell_basis(target, bal, RATIONAL, basis, f)
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
        basis = compute_basis(c, bal, RATIONAL).basis
        for d in range(bound + 1):
            for m in graded_monomials(c, degree=d):
                f = RingElement.monomial(c, RATIONAL, m)
                rep = represent_on_cell_basis(c, bal, RATIONAL, basis, f)
                assert evaluate_cell_representation(c, bal, rep) == f


def test_representation_rejects_broken_basis(double_edge_sd):
    target, bal = double_edge_sd.target, double_edge_sd.balancing
    good = compute_basis(target, bal, RATIONAL).basis
    from facering.cm_basis import CellBasis
    broken = CellBasis(target, bal, RATIONAL,
                       [target.resolve(f) for f in ("", "v", "w", "v_alpha")],
                       good.span)
    f = RingElement.monomial(target, RATIONAL, ((target.resolve("alpha"), 1),))
    with pytest.raises(BasisInvalid):
        represent_on_cell_basis(target, bal, RATIONAL, broken, f)


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
            assert span.contains(elements) == (expected is not None)
            assert twin.contains(row) == (expected is not None)
            rep = span.represent(elements)
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
        assert span.dim == twin.dim == len(independent)
        with pytest.raises(ValueError):
            twin.contains({width: 1})
    if p is None:
        assert non_integral > 0


@pytest.mark.parametrize("case", ["sd-tetrahedron", "disk"])
def test_selected_facets_are_label_selected_facets(case, disk, disk_balancing):
    if case == "disk":
        c, bal = disk, disk_balancing
    else:
        sd = barycentric_subdivision(build_from_facets([["0", "1", "2", "3"]]))
        c, bal = sd.target, sd.balancing
    basis = compute_basis(c, bal, RATIONAL).basis
    for r in range(bal.n + 1):
        for s in itertools.combinations(range(1, bal.n + 1), r):
            sub = label_selected(c, bal, s)
            expected = [c.index_of[sub.ids[f]] for f in sub.facets]
            assert selected_facets(c, bal, frozenset(s)) == expected
            assert basis.selected(s).facets == expected
