"""Acceptance suite: one test per criterion, exact arithmetic, no tolerances.

Each test prints a PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``
to see them as they go).
"""

import contextlib
import itertools
import random
import time

import pytest

from facering import (
    Partition,
    RingElement,
    act,
    average,
    barycentric_subdivision,
    build_from_facets,
    build_phi,
    close_group,
    compute_basis,
    facet_vector,
    fine_vectors,
    graded_monomials,
    label_row_parameter,
    odd_cross_term_witness,
    represent_on_cell_basis,
    straighten,
    subspace_M_S,
    verify_morphism,
)
from facering.cm_basis import evaluate_cell_representation, validate_processing_order
from facering.equivariant import (
    automorphism_from_face_map,
    automorphism_from_vertex_map,
)
from facering.errors import OrderNotInvertible
from facering.face_ring import (
    ParameterPolynomial,
    mono_shape,
    straighten_with_strategy,
)
from facering.linalg import rref
from facering.partitions import sh, strictly_dominates
from facering.transfer import TransferContext, express_on_transferred_basis

from conftest import GF2, GF5, RATIONAL

FIELDS = (RATIONAL, GF2, GF5)


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {title}: PASS")


def el(c, pairs, field=RATIONAL, coeff=1, discrete=False):
    return straighten(c, pairs, field, coeff, discrete)


def poly(n, terms, field=RATIONAL):
    return ParameterPolynomial(n, field, terms)


def test_criterion_1_straightening_golden(double_edge):
    with criterion(1, "straightening golden"):
        product = el(double_edge, [("v", 1)]) * el(double_edge, [("w", 1)])
        assert product == el(double_edge, [("alpha", 1)]) \
            + el(double_edge, [("beta", 1)])


def test_criterion_2_parameter_expansions(double_edge):
    with criterion(2, "parameter expansion goldens"):
        gamma_mono = poly(2, {(2, 1): 1}).evaluate(
            double_edge, "gamma")
        assert gamma_mono == (
            el(double_edge, [("v", 2), ("alpha", 1)], discrete=True)
            + el(double_edge, [("v", 2), ("beta", 1)], discrete=True)
            + el(double_edge, [("w", 2), ("alpha", 1)], discrete=True)
            + el(double_edge, [("w", 2), ("beta", 1)], discrete=True))
        theta_mono = poly(2, {(2, 1): 1}).evaluate(
            double_edge, "theta")
        assert theta_mono == (
            el(double_edge, [("v", 2), ("alpha", 1)])
            + el(double_edge, [("v", 2), ("beta", 1)])
            + el(double_edge, [("w", 2), ("alpha", 1)])
            + el(double_edge, [("w", 2), ("beta", 1)])
            + el(double_edge, [("alpha", 2)], coeff=2)
            + el(double_edge, [("beta", 2)], coeff=2))
        mod_two = poly(2, {(2, 1): 1}, GF2).evaluate(
            double_edge, "theta")
        assert mod_two == (
            el(double_edge, [("v", 2), ("alpha", 1)], field=GF2)
            + el(double_edge, [("v", 2), ("beta", 1)], field=GF2)
            + el(double_edge, [("w", 2), ("alpha", 1)], field=GF2)
            + el(double_edge, [("w", 2), ("beta", 1)], field=GF2))


def test_criterion_3_subdivision_basis(double_edge_sd):
    with criterion(3, "cell basis of the subdivided double edge"):
        for field in FIELDS:
            verdict = compute_basis(double_edge_sd.target,
                                    double_edge_sd.balancing, field)
            assert verdict.cohen_macaulay
            assert [double_edge_sd.target.ids[m]
                    for m in verdict.basis.members] == [
                        "", "v", "alpha", "v_alpha"]


def test_criterion_4_disjoint_edges_witness(disjoint_edges,
                                            disjoint_edges_balancing):
    with criterion(4, "disjoint edges fail with certificate"):
        for field in FIELDS:
            verdict = compute_basis(disjoint_edges, disjoint_edges_balancing,
                                    field)
            assert not verdict.cohen_macaulay
            assert disjoint_edges.ids[verdict.witness] == "c"
            (member, coeff), = verdict.representation
            assert disjoint_edges.ids[member] == "a" and coeff == 1
            assert not (disjoint_edges_balancing.label_set(member)
                        <= disjoint_edges_balancing.label_set(verdict.witness))
            assert facet_vector(disjoint_edges, "c", field) \
                == facet_vector(disjoint_edges, "a", field)


def test_criterion_5_disk_basis(disk, disk_balancing):
    with criterion(5, "balanced disk basis and subspaces"):
        order = ["", "s", "t", "u", "v", "alpha", "beta", "gamma", "delta",
                 "epsilon", "zeta", "P", "Q", "R"]
        verdict = compute_basis(disk, disk_balancing, RATIONAL, order=order)
        assert verdict.cohen_macaulay
        labelled = [(disk.ids[m], tuple(sorted(disk_balancing.label_set(m))))
                    for m in verdict.basis.members]
        assert labelled == [("", ()), ("s", (1,)), ("epsilon", (2, 3))]

        def rows(vectors):
            return [list(r) for r in vectors]

        one, zero = 1, 0
        assert rows(subspace_M_S(disk, disk_balancing, RATIONAL, [1])) == [
            [one, zero, zero], [zero, one, one]]
        assert rows(subspace_M_S(disk, disk_balancing, RATIONAL, [2, 3])) == [
            [one, one, zero], [zero, zero, one]]
        _, h = fine_vectors(disk, disk_balancing)
        assert {s: c for s, c in h.items() if c} == {
            (): 1, (1,): 1, (2, 3): 1}


def test_criterion_6_representation_golden(double_edge_sd):
    with criterion(6, "representation on the cell basis"):
        target, bal = double_edge_sd.target, double_edge_sd.balancing
        basis = compute_basis(target, bal, RATIONAL).basis
        f = RingElement.monomial(target, RATIONAL, (
            (target.resolve("w"), 1), (target.resolve("w_beta"), 1)))
        rep = represent_on_cell_basis(target, bal, RATIONAL, basis, f)
        assert {target.ids[m]: p for m, p in rep.items()} == {
            "": poly(2, {(2, 1): 1}),
            "v": poly(2, {(1, 1): -1}),
            "alpha": poly(2, {(2, 0): -1}),
            "v_alpha": poly(2, {(1, 0): 1})}
        assert evaluate_cell_representation(target, bal, rep) == f


def test_criterion_7_transfer_descent_golden(double_edge, double_edge_sd):
    with criterion(7, "transfer descent golden"):
        ctx = TransferContext(double_edge_sd, RATIONAL)
        basis = compute_basis(double_edge_sd.target, double_edge_sd.balancing,
                              RATIONAL).basis
        g = el(double_edge, [("w", 2), ("beta", 1)])
        result = express_on_transferred_basis(ctx, basis, g)
        names = {double_edge_sd.target.ids[m]: p
                 for m, p in result.coefficients.items()}
        assert names == {
            "": poly(2, {(2, 1): 1, (0, 2): -1}),
            "v": poly(2, {(1, 1): -1}),
            "alpha": poly(2, {(2, 0): -1, (0, 1): 1}),
            "v_alpha": poly(2, {(1, 0): 1})}
        first = result.remainders[0]
        assert first == el(double_edge, [("beta", 2)], coeff=-1)
        (m,) = first.terms
        assert mono_shape(double_edge, m) == Partition((2, 2))


def test_criterion_8_odd_cross_term():
    with criterion(8, "odd cross-term coefficients"):
        start = time.time()
        for d in (2, 3, 4):
            witness = odd_cross_term_witness(d)
            assert witness.coefficient == 3
            assert witness.odd
            assert witness.strictly_dominated
            assert witness.staircase == Partition(range(d, 0, -1))
        assert time.time() - start < 30


def test_criterion_9_equivariant_pipeline(double_edge, double_edge_sd,
                                          triangle, triangle_sd):
    with criterion(9, "equivariant isomorphism pipeline"):
        swap = automorphism_from_face_map(double_edge,
                                          {"alpha": "beta", "beta": "alpha"})
        s3_gens = [automorphism_from_vertex_map(triangle, {"0": "1", "1": "0"}),
                   automorphism_from_vertex_map(triangle,
                                                {"0": "1", "1": "2", "2": "0"})]
        cases = [(double_edge, double_edge_sd, [swap], RATIONAL),
                 (double_edge, double_edge_sd, [swap], GF5),
                 (triangle, triangle_sd, s3_gens, RATIONAL),
                 (triangle, triangle_sd, s3_gens, GF5)]
        for base, sd, gens, field in cases:
            group = close_group(base, gens)
            verdict = compute_basis(sd.target, sd.balancing, field)
            assert verdict.cohen_macaulay
            ctx = TransferContext(sd, field)
            averaged = average(build_phi(ctx, verdict.basis), group)
            report = verify_morphism(averaged, group, degree_bound=6)
            assert report.equivariant and report.isomorphism, report.failures
        group = close_group(triangle, s3_gens)
        verdict = compute_basis(triangle_sd.target, triangle_sd.balancing, GF2)
        ctx = TransferContext(triangle_sd, GF2)
        with pytest.raises(OrderNotInvertible):
            average(build_phi(ctx, verdict.basis), group)


def test_criterion_10_property_suites(double_edge, double_edge_balancing,
                                      double_edge_sd, disk, disk_balancing,
                                      disjoint_edges, disjoint_edges_balancing,
                                      triangle, triangle_sd):
    rng = random.Random(2468)
    with criterion(10, "randomized property suites"):
        # straightening confluence under random rewrite orders
        for c in (double_edge, triangle, disk):
            faces = list(range(1, len(c)))
            for _ in range(25):
                raw = [(rng.choice(faces), rng.randint(1, 2))
                       for _ in range(rng.randint(2, 4))]
                reference = straighten(c, raw, RATIONAL)
                for _ in range(3):
                    got = straighten_with_strategy(
                        c, raw, RATIONAL, lambda pairs: rng.choice(pairs))
                    assert got == reference

        # dominance descent for products of monomial pairs of total degree <= 6
        for c in (double_edge, triangle):
            monos = [m for d in range(1, 6)
                     for m in graded_monomials(c, degree=d)]
            for m1, m2 in itertools.product(monos, repeat=2):
                d1 = sum(e * c.rank[f] for f, e in m1)
                d2 = sum(e * c.rank[f] for f, e in m2)
                if d1 + d2 > 6:
                    continue
                product = RingElement.monomial(c, RATIONAL, m1) \
                    * RingElement.monomial(c, RATIONAL, m2)
                total = mono_shape(c, m1) + mono_shape(c, m2)
                support = {f for f, _ in m1} | {f for f, _ in m2}
                stacked = all(c.comparable(a, b)
                              for a, b in itertools.combinations(support, 2))
                if stacked:
                    (only,) = product.terms
                    assert mono_shape(c, only) == total
                else:
                    for m in product.terms:
                        assert strictly_dominates(total, mono_shape(c, m))

        ctx = TransferContext(double_edge_sd, RATIONAL)
        swap = automorphism_from_face_map(double_edge,
                                          {"alpha": "beta", "beta": "alpha"})
        group = close_group(double_edge, [swap])
        monos6 = [m for d in range(7)
                  for m in graded_monomials(double_edge, degree=d)]
        for m in monos6:
            f = RingElement(double_edge, RATIONAL, True, {m: 1})
            g = ctx.garsia(f)
            # shape preservation and equivariance of the transfer
            (gm,) = g.terms
            assert mono_shape(double_edge, gm) == mono_shape(double_edge, m)
            for sigma in group:
                assert ctx.garsia(act(sigma, f)) == act(sigma, g)
            # top-shape homomorphism defect, against a fixed quadratic factor
            h = RingElement(double_edge, RATIONAL, True,
                            {monos6[1]: 1})
            lam = mono_shape(double_edge, m) + mono_shape(double_edge, monos6[1])
            defect = g * ctx.garsia(h) - ctx.garsia(f * h)
            for t in defect.terms:
                assert strictly_dominates(lam, mono_shape(double_edge, t))

        # all-monomials-coefficient-one identities
        for exps in itertools.product(range(3), repeat=2):
            if not 0 < sum(a * (j + 1) for j, a in enumerate(exps)) <= 6:
                continue
            gamma_mono = poly(2, dict([(exps, 1)])).evaluate(
                double_edge, "gamma")
            assert sorted(gamma_mono.terms) == sorted(
                graded_monomials(double_edge, shape=sh(exps)))
            assert all(c == 1 for c in gamma_mono.terms.values())
        for exps in itertools.product(range(3), repeat=3):
            if not 0 < sum(exps) <= 4:
                continue
            omega_mono = poly(3, dict([(exps, 1)])).evaluate(
                disk, "omega", balancing=disk_balancing)
            assert sorted(omega_mono.terms) == sorted(graded_monomials(
                disk, multidegree=exps, balancing=disk_balancing))
            assert all(c == 1 for c in omega_mono.terms.values())

        # torsion-freeness witness
        for c, bal in [(disk, disk_balancing),
                       (double_edge_sd.target, double_edge_sd.balancing)]:
            omegas = [label_row_parameter(c, bal, j, RATIONAL)
                      for j in range(1, bal.n + 1)]
            for d in range(4):
                for m in graded_monomials(c, degree=d):
                    zm = RingElement.monomial(c, RATIONAL, m)
                    for omega in omegas:
                        assert not (omega * zm).is_zero

        # verdict invariance over >= 10 random containment-compatible orders
        cases = [(double_edge, double_edge_balancing),
                 (disk, disk_balancing),
                 (disjoint_edges, disjoint_edges_balancing),
                 (triangle_sd.target, triangle_sd.balancing)]
        for c, bal in cases:
            reference = compute_basis(c, bal, RATIONAL)
            for _ in range(10):
                faces = list(range(len(c)))
                order = []
                remaining = set(faces)
                while remaining:
                    ready = [f for f in remaining
                             if not any(bal.label_set(g) < bal.label_set(f)
                                        for g in remaining if g != f)]
                    pick = rng.choice(sorted(ready))
                    order.append(pick)
                    remaining.remove(pick)
                validate_processing_order(c, bal, order)
                verdict = compute_basis(c, bal, RATIONAL, order=order)
                assert verdict.cohen_macaulay == reference.cohen_macaulay
                if verdict.cohen_macaulay:
                    # fine h-vector predicts the member count per label set
                    _, h = fine_vectors(c, bal)
                    counts = {s: 0 for s in h}
                    for m in verdict.basis.members:
                        counts[tuple(sorted(bal.label_set(m)))] += 1
                    assert counts == h

        # degreewise dimensions of the two rings agree
        for c, sd in [(double_edge, double_edge_sd), (triangle, triangle_sd)]:
            weights = {f: sum(sd.balancing.label_set(f))
                       for f in range(1, len(sd.target))}
            for d in range(7):
                assert len(graded_monomials(c, degree=d)) == len(
                    graded_monomials(sd.target, degree=d,
                                     face_degree=lambda f: weights[f]))


def test_criterion_11_scale(triangle_sd):
    with criterion(11, "scale smoke test"):
        assert len(triangle_sd.target.facets) == 6
        basis = compute_basis(triangle_sd.target, triangle_sd.balancing,
                              RATIONAL).basis
        assert len(basis.members) == 6
        start = time.time()
        tetra = build_from_facets([["0", "1", "2", "3"]])
        sd3 = barycentric_subdivision(tetra)
        assert len(sd3.target.facets) == 24
        verdict = compute_basis(sd3.target, sd3.balancing, RATIONAL)
        assert verdict.cohen_macaulay
        assert len(verdict.basis.members) == 24
        assert time.time() - start < 5.0
