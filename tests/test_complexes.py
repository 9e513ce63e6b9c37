import glob
import itertools
import os
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from facering import (
    Balancing,
    BooleanComplex,
    barycentric_subdivision,
    build_from_facets,
    build_from_poset,
    label_selected,
)
from facering.complexes import EMPTY, mask_members
from facering.documents import complex_from_document, load_json
from facering.errors import (
    DuplicateFaceId,
    EmptyInput,
    InvalidBalancing,
    InvalidComplex,
    LowerIntervalNotBoolean,
    NoCommonUpperBound,
    NotRanked,
    UnknownFace,
)


def test_build_from_poset_double_edge(double_edge):
    assert len(double_edge) == 5
    assert [double_edge.ids[f] for f in double_edge.facets] == ["alpha", "beta"]
    assert double_edge.rank == (0, 1, 1, 2, 2)


def test_build_from_poset_single_vertex():
    c = build_from_poset([{"id": "v"}])
    assert len(c) == 2
    assert [c.ids[f] for f in c.facets] == ["v"]


def test_edge_covering_three_vertices_rejected():
    with pytest.raises(LowerIntervalNotBoolean):
        build_from_poset([
            {"id": "a"}, {"id": "b"}, {"id": "c"},
            {"id": "e", "covers": ["a", "b", "c"]},
        ])


def test_cycle_rejected():
    with pytest.raises(NotRanked):
        build_from_poset([
            {"id": "a", "covers": ["b"]},
            {"id": "b", "covers": ["a"]},
        ])


def test_unequal_cover_ranks_rejected():
    with pytest.raises(NotRanked):
        build_from_poset([
            {"id": "a"},
            {"id": "e", "covers": ["a"]},
            {"id": "f", "covers": ["e", "a"]},
        ])


def test_shared_vertex_set_rejected():
    # two edges on {a, b} under one triangle: the counts at t are right
    # (3 atoms, 8 faces), but the vertex sets below t are not distinct
    with pytest.raises(LowerIntervalNotBoolean,
                       match="two faces below 't' share a vertex set"):
        build_from_poset([
            {"id": "a"}, {"id": "b"}, {"id": "c"},
            {"id": "e1", "covers": ["a", "b"]},
            {"id": "e2", "covers": ["a", "b"]},
            {"id": "e3", "covers": ["b", "c"]},
            {"id": "t", "covers": ["e1", "e2", "e3"]},
        ])


def test_boolean_failure_named_by_rank_then_index():
    # z (rank 2) covers three vertices; t (rank 3) sits over two edges on
    # {a, b}.  Whatever order the construction visits them in, the failure
    # with the smallest (rank, index) is reported.
    with pytest.raises(LowerIntervalNotBoolean) as info:
        build_from_poset([
            {"id": "p"}, {"id": "q"}, {"id": "r"},
            {"id": "z", "covers": ["p", "q", "r"]},
            {"id": "a"}, {"id": "b"}, {"id": "c"},
            {"id": "e1", "covers": ["a", "b"]},
            {"id": "e2", "covers": ["a", "b"]},
            {"id": "e3", "covers": ["b", "c"]},
            {"id": "t", "covers": ["e1", "e2", "e3"]},
        ])
    assert str(info.value) == ("lower interval of face 'z' is not a boolean "
                               "lattice of rank 2")


def test_not_ranked_wins_over_boolean_failure():
    # e fails the boolean check first, but g covers faces of unequal rank
    with pytest.raises(NotRanked) as info:
        build_from_poset([
            {"id": "a"}, {"id": "b"}, {"id": "c"},
            {"id": "e", "covers": ["a", "b", "c"]},
            {"id": "g", "covers": ["e", "a"]},
        ])
    assert str(info.value) == "face 'g' covers faces of unequal rank"


def test_missing_cover_rejected():
    # f has 4 atoms and 16 faces below it but covers only three triangles:
    # two of them carry different edges on {a, b}
    faces = [{"id": v} for v in "abcd"]
    faces += [{"id": e, "covers": list(vs)} for e, vs in [
        ("ab1", "ab"), ("ab2", "ab"), ("ac", "ac"), ("bc", "bc"),
        ("ad", "ad"), ("bd", "bd"), ("cd", "cd")]]
    faces += [{"id": "t1", "covers": ["ab1", "bc", "ac"]},
              {"id": "t2", "covers": ["ab2", "bd", "ad"]},
              {"id": "t3", "covers": ["ac", "cd", "ad"]},
              {"id": "f", "covers": ["t1", "t2", "t3"]}]
    with pytest.raises(LowerIntervalNotBoolean,
                       match="two faces below 'f' share a vertex set"):
        build_from_poset(faces)


# cover lists (indices of nonempty faces) of small boolean complexes: a
# vertex, the double edge, a path, the filled triangle, and a triangle with
# one doubled edge
BOOLEAN_BASES = [
    [[]],
    [[], [], [0, 1], [0, 1]],
    [[], [], [], [], [0, 1], [1, 2], [2, 3]],
    [[], [], [], [0, 1], [1, 2], [0, 2], [3, 4, 5]],
    [[], [], [], [0, 1], [0, 1], [1, 2], [0, 2], [3, 5, 6]],
]


@st.composite
def hasse_diagrams(draw):
    """Covers of at most 9 nonempty faces as indices in any order: random,
    or a small boolean complex relabelled and given up to two cover flips."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 9))
        return draw(st.lists(st.lists(st.integers(0, n - 1), max_size=3),
                             min_size=n, max_size=n))
    base = draw(st.sampled_from(BOOLEAN_BASES))
    perm = draw(st.permutations(range(len(base))))
    covers: list[list[int]] = [[] for _ in base]
    for f, cs in enumerate(base):
        covers[perm[f]] = [perm[c] for c in cs]
    for _ in range(draw(st.integers(0, 2))):
        f = draw(st.integers(0, len(covers) - 1))
        g = draw(st.integers(0, len(covers) - 1))
        if g in covers[f]:
            covers[f].remove(g)
        else:
            covers[f].append(g)
    return covers


def _reference_construction(covers):
    """Exception class the original construction raises on these covers, with
    its all-pairs test that vertex sets order faces; or, when it accepts, the
    ranks, downsets and atom sets by face index and the maximal-chain count
    (r! chains below each maximal face of rank r, a boolean interval)."""
    n = len(covers) + 1
    below = [set()] + [{c + 1 for c in cs} or {0} for cs in covers]
    rank = {0: 0}
    while len(rank) < n:
        ready = [f for f in range(n) if f not in rank and below[f] <= rank.keys()]
        if not ready:
            return NotRanked  # a cycle
        for f in ready:
            ranks = {rank[c] for c in below[f]}
            if len(ranks) != 1:
                return NotRanked
            rank[f] = ranks.pop() + 1
    down = {}
    for f in sorted(range(n), key=rank.get):
        down[f] = {f}.union(*(down[c] for c in below[f]))
    atoms = {f: frozenset(g for g in down[f] if rank[g] == 1) for f in range(n)}
    for f in range(n):
        r = rank[f]
        if len(atoms[f]) != r or len(down[f]) != 2 ** r:
            return LowerIntervalNotBoolean
        if len({atoms[b] for b in down[f]}) != len(down[f]):
            return LowerIntervalNotBoolean
        for b, c in itertools.combinations(down[f], 2):
            if (b in down[c] or c in down[b]) != (atoms[b] <= atoms[c]
                                                  or atoms[c] <= atoms[b]):
                return LowerIntervalNotBoolean
    maximal = [f for f in range(n)
               if not any(f in down[g] for g in range(n) if g != f)]
    chains = sum(factorial(rank[f]) for f in maximal)
    return ([rank[f] for f in range(n)], [sorted(down[f]) for f in range(n)],
            [atoms[f] for f in range(n)], chains)


@given(hasse_diagrams())
def test_validation_matches_all_pairs_reference(covers):
    ids = [f"f{i}" for i in range(len(covers))]
    expected = _reference_construction(covers)
    try:
        c = BooleanComplex(ids, [[ids[c] for c in cs] for cs in covers])
    except InvalidComplex as exc:
        assert type(exc) is expected
        return
    assert isinstance(expected, tuple)
    rank, down, atoms, chains = expected
    assert list(c.rank) == rank
    assert [list(mask_members(c.down[f])) for f in range(len(c))] == down
    assert list(c.atoms) == [sum(1 << g for g in a) for a in atoms]
    for r in range(-1, max(rank) + 2):
        assert c.faces_of_rank(r) == [f for f in range(len(c)) if rank[f] == r]
    assert c.vertices() == c.faces_of_rank(1)
    assert c.n == max(rank)
    assert len(barycentric_subdivision(c).target.facets) == chains


def test_duplicate_and_unknown_ids():
    with pytest.raises(DuplicateFaceId):
        build_from_poset([{"id": "a"}, {"id": "a"}])
    with pytest.raises(UnknownFace):
        build_from_poset([{"id": "a", "covers": ["missing"]}])
    with pytest.raises(UnknownFace):
        BooleanComplex(["a", "b"], [[], [3]])


def test_poset_forward_references_and_facet_order():
    c = build_from_poset([
        {"id": "alpha", "covers": ["v", "w"]},
        {"id": "beta", "covers": ["v", "w"]},
        {"id": "v"}, {"id": "w"},
    ], facet_order=["beta", "alpha"])
    assert [c.ids[f] for f in c.facets] == ["beta", "alpha"]
    with pytest.raises(Exception):
        build_from_poset([{"id": "v"}], facet_order=["v", "v"])


def test_build_from_facets_triangle(triangle):
    assert len(triangle) == 8
    assert [triangle.ids[f] for f in triangle.facets] == ["0,1,2"]


def test_build_from_facets_disjoint_edges(disjoint_edges):
    assert len(disjoint_edges) == 7
    assert [disjoint_edges.ids[f] for f in disjoint_edges.facets] == ["a,c", "b,d"]


def test_build_from_facets_point():
    c = build_from_facets([["x"]])
    assert tuple(c.ids) == ("", "x")


def test_build_from_facets_collapses_contained():
    c = build_from_facets([["a", "b"], ["a"], ["a", "b"]])
    assert [c.ids[f] for f in c.facets] == ["a,b"]


def test_empty_input():
    with pytest.raises(EmptyInput):
        build_from_facets([])
    with pytest.raises(EmptyInput):
        build_from_facets([[]])


def test_meet_examples(double_edge, triangle):
    v, w = double_edge.resolve("v"), double_edge.resolve("w")
    assert double_edge.meet(v, w) == EMPTY
    alpha = double_edge.resolve("alpha")
    assert double_edge.meet(alpha, alpha) == alpha
    e01, e02 = triangle.resolve("0,1"), triangle.resolve("0,2")
    assert triangle.ids[triangle.meet(e01, e02)] == "0"


def test_meet_requires_upper_bound(disjoint_edges):
    a, b = disjoint_edges.resolve("a"), disjoint_edges.resolve("b")
    with pytest.raises(NoCommonUpperBound):
        disjoint_edges.meet(a, b)


def test_lub_examples(double_edge, disjoint_edges):
    v, w = double_edge.resolve("v"), double_edge.resolve("w")
    assert sorted(double_edge.ids[g] for g in double_edge.lub_set(v, w)) == [
        "alpha", "beta"]
    a, b = disjoint_edges.resolve("a"), disjoint_edges.resolve("b")
    assert disjoint_edges.lub_set(a, b) == []
    gamma = double_edge.resolve("alpha")
    assert double_edge.lub_set(EMPTY, gamma) == [gamma]


def test_sd_double_edge(double_edge_sd):
    target = double_edge_sd.target
    assert len(target) == 9  # empty + 4 vertices + 4 edges
    assert len(target.facets) == 4
    assert [target.ids[f] for f in target.facets] == [
        "v_alpha", "w_alpha", "v_beta", "w_beta"]


def test_sd_single_edge():
    # oracle: the poset of one edge has faces v0, v1, e; its nonempty chains
    # are the three singletons plus (v0,e) and (v1,e), a path with 3 vertices
    c = build_from_facets([["p", "q"]])
    sd = barycentric_subdivision(c)
    assert len(sd.target) == 6
    assert len(sd.target.facets) == 2
    assert sum(1 for f in range(len(sd.target)) if sd.target.rank[f] == 1) == 3


def test_sd_single_vertex():
    c = build_from_facets([["x"]])
    sd = barycentric_subdivision(c)
    assert len(sd.target) == 2
    assert len(sd.target.facets) == 1


def test_sd_is_balanced_by_ranks(double_edge_sd, triangle_sd):
    for sd in (double_edge_sd, triangle_sd):
        bal = sd.balancing
        assert bal.n == sd.source.n
        assert all(bal.vertex_label[sd.face_of_chain[(f,)]] == sd.source.rank[f]
                   for f in range(1, len(sd.source)))
        assert all(bal.label_sets[eps] == frozenset(range(1, bal.n + 1))
                   for eps in sd.target.facets)
    # a complex that is not pure has a subdivision that is not pure either
    mixed = barycentric_subdivision(build_from_facets([["a", "b"], ["c"]]))
    assert not mixed.target.is_pure()
    assert mixed.balancing is None


def test_sd_facet_count_is_chain_count(double_edge, triangle):
    for c in (double_edge, triangle):
        sd = barycentric_subdivision(c)
        # every lower interval is boolean: r! maximal chains below a facet of rank r
        assert len(sd.target.facets) == sum(factorial(c.rank[f]) for f in c.facets)


DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "data")
DATA_COMPLEXES = sorted(
    os.path.basename(path) for path in glob.glob(os.path.join(DATA, "*.json"))
    if not path.endswith(("_balancing.json", "_group.json")))


def _string_built_subdivision(source):
    """The subdivision built from its Hasse diagram with string ids and string
    covers, through ``build_from_poset``, with its rank balancing."""
    chains = []

    def grow(chain):
        chains.append(chain)
        for g in range(1, len(source)):
            if g != chain[-1] and source.leq(chain[-1], g):
                grow(chain + (g,))

    for f in range(1, len(source)):
        grow((f,))
    chains.sort(key=lambda c: (len(c), tuple(reversed(c))))

    def name(chain):
        return "_".join(source.ids[f] for f in chain)

    target = build_from_poset([
        {"id": name(c),
         "covers": [name(c[:k] + c[k + 1:]) for k in range(len(c))]
         if len(c) > 1 else []}
        for c in chains])
    ranks = {source.ids[f]: source.rank[f] for f in range(1, len(source))}
    return target, Balancing(target, ranks)


def _assert_matches_validated_rebuild(sd):
    # the target's tables are derived from its chains without validation;
    # the validating constructor on the same Hasse diagram agrees with them
    target = sd.target
    rebuilt = BooleanComplex(target.ids[1:], target.covers[1:])
    for attr in ("ids", "covers", "rank", "down", "up", "atoms", "facets"):
        assert getattr(target, attr) == getattr(rebuilt, attr)
    for r in range(target.n + 2):
        assert target.faces_of_rank(r) == rebuilt.faces_of_rank(r)
    ranks = {sd.face_of_chain[(f,)]: sd.source.rank[f]
             for f in range(1, len(sd.source))}
    if not sd.source.is_pure():
        assert sd.balancing is None
        with pytest.raises(InvalidBalancing):
            Balancing(rebuilt, ranks)
        return
    balancing = Balancing(rebuilt, ranks)
    assert balancing.label_sets == sd.balancing.label_sets
    assert balancing.faces_by_label_set == sd.balancing.faces_by_label_set


@pytest.mark.parametrize("source", DATA_COMPLEXES + ["simplex2", "simplex3",
                                                     "simplex4"])
def test_sd_matches_string_built_reference(source):
    if source.startswith("simplex"):
        d = int(source[-1])
        c = build_from_facets([[str(i) for i in range(d + 1)]])
    else:
        c = complex_from_document(load_json(os.path.join(DATA, source)))
    sd = barycentric_subdivision(c)
    _assert_matches_validated_rebuild(sd)
    target, balancing = _string_built_subdivision(c)
    for attr in ("ids", "covers", "rank", "down", "up", "facets"):
        assert getattr(sd.target, attr) == getattr(target, attr)
    assert sd.balancing.label_sets == balancing.label_sets


@given(st.lists(st.lists(st.sampled_from("abcde"), min_size=1, max_size=4,
                         unique=True), min_size=1, max_size=4))
def test_sd_tables_match_validating_constructor_on_random_facets(facets):
    _assert_matches_validated_rebuild(
        barycentric_subdivision(build_from_facets(facets)))


def test_sd_simplex_facet_count_is_factorial():
    for d in range(4):
        c = build_from_facets([[str(i) for i in range(d + 1)]])
        sd = barycentric_subdivision(c)
        assert len(sd.target.facets) == factorial(d + 1)


def _descent_set_counts(m):
    counts = {}
    for w in itertools.permutations(range(m)):
        s = tuple(i for i in range(1, m) if w[i - 1] > w[i])
        counts[s] = counts.get(s, 0) + 1
    return counts


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_sd_simplex_flag_h_vector_counts_descents(d):
    # on sd of the d-simplex, with each chain labelled by the ranks in it,
    # h_S is the number of permutations of [d+1] with descent set S
    # (Stanley, Balanced Cohen-Macaulay complexes, 1979)
    from facering.face_ring import fine_vectors
    sd = barycentric_subdivision(build_from_facets([[str(i) for i in range(d + 1)]]))
    _, h_vec = fine_vectors(sd.balancing)
    descents = _descent_set_counts(d + 1)
    assert h_vec == {s: descents.get(s, 0) for s in h_vec}
    assert sum(h_vec.values()) == factorial(d + 1)


def test_label_selected_examples(double_edge_sd):
    target, bal = double_edge_sd.target, double_edge_sd.balancing
    sub = label_selected(bal, {1})
    assert sorted(sub.ids) == ["", "v", "w"]
    assert len(sub.facets) == 2
    empty_only = label_selected(bal, set())
    assert tuple(empty_only.ids) == ("",)
    assert [empty_only.ids[f] for f in empty_only.facets] == [""]
    full = label_selected(bal, {1, 2})
    assert sorted(full.ids) == sorted(target.ids)


def test_label_selected_functorial(disk, disk_balancing):
    # the labels of S, mapped order-preservingly onto 1..|S|, balance the
    # subcomplex selected by S
    for s in itertools.chain.from_iterable(
            itertools.combinations((1, 2, 3), r) for r in range(4)):
        outer = label_selected(disk_balancing, s)
        relabel = {label: k for k, label in enumerate(s, 1)}
        outer_bal = Balancing(outer, {
            outer.ids[v]: relabel[disk_balancing.vertex_label[disk.resolve(outer.ids[v])]]
            for v in outer.vertices()})
        for r in range(len(s) + 1):
            for sub in itertools.combinations(s, r):
                direct = label_selected(disk_balancing, sub)
                again = label_selected(outer_bal, [relabel[j] for j in sub])
                assert sorted(again.ids) == sorted(direct.ids)


def test_validate_balancing_examples(double_edge, disjoint_edges_balancing):
    good = Balancing(double_edge, {"v": 1, "w": 2})
    assert good.n == 2
    assert disjoint_edges_balancing.n == 2
    with pytest.raises(InvalidBalancing):
        Balancing(double_edge, {"v": 1, "w": 1})


def test_label_selected_carries_sub_collection(disk_balancing):
    # the subcomplex keeps the labels 2 and 3, which are not 1..2
    sub = label_selected(disk_balancing, {2, 3})
    with pytest.raises(InvalidBalancing):
        Balancing(sub, {"u": 2, "v": 3})
    from facering.face_ring import fine_vectors
    f_vec, _ = fine_vectors(Balancing(sub, {"u": 1, "v": 2}))
    assert f_vec == {(): 1, (1,): 1, (2,): 1, (1, 2): 2}


@pytest.mark.parametrize("facets, labels, message", [
    ([["a", "b"], ["c"]], {"a": 1, "b": 2, "c": 1},
     "labeling is not a balancing of this complex"),
    ([["a", "b"], ["b", "c"]], {"a": 1, "b": 2, "c": 2},
     "labeling is not a balancing of this complex"),
    ([["0", "1", "2"]], {"0": 2, "1": 3, "2": 4},
     "a balancing of this complex needs labels exactly 1..3; got [2, 3, 4]"),
], ids=["not-pure", "facet-missing-a-label", "labels-2-3-4-on-triangle"])
def test_balancing_construction_errors(facets, labels, message):
    with pytest.raises(InvalidBalancing) as info:
        Balancing(build_from_facets(facets), labels)
    assert type(info.value) is InvalidBalancing
    assert str(info.value) == message


def test_is_pure(double_edge):
    assert double_edge.is_pure()
    mixed = build_from_facets([["a", "b"], ["c"]])
    assert not mixed.is_pure()
    point = build_from_facets([["x"]])
    assert point.is_pure()


def test_lower_intervals_are_binomial(double_edge, disk, triangle_sd):
    for c in (double_edge, disk, triangle_sd.target):
        for f in range(len(c)):
            r = c.rank[f]
            for k in range(r + 1):
                count = sum(1 for g in mask_members(c.down[f]) if c.rank[g] == k)
                assert count == comb(r, k)
