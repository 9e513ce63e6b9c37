"""Boolean complexes as validated augmented face posets.

A boolean complex is stored through its augmented face poset: the unique
empty face (always index 0, id ``""``) plus the nonempty faces.  Construction
validates the simplicial-poset axioms: the poset is ranked, and every lower
interval is a boolean lattice.  All derived structure (downsets, upsets, atom
sets, facet list, chain counts) is built eagerly and never changes.  The
memo caches for ring arithmetic and the subdivision are the only mutable
state: they are append-only, and each key is stored once, with its finished
value, by ``dict.setdefault``.  Concurrent readers may repeat work, but they
never see a partial result, and all of them get the first stored value.

Faces are referenced by stable integer indices internally; string ids appear
only at the I/O boundary and in error messages.  The facet order is fixed at
construction and is part of the complex's identity: facet vectors are indexed
by it, and every output echoes it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateFaceId,
    EmptyInput,
    InputError,
    InvalidBalancing,
    LowerIntervalNotBoolean,
    NoCommonUpperBound,
    NotRanked,
    UnknownFace,
)

EMPTY = 0  # index of the empty face in every complex


def mask_members(mask: int):
    """Indices of the set bits of a face bitmask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BooleanComplex:
    """Augmented face poset of a boolean complex, with derived caches.

    ``ids``/``covers`` describe the nonempty faces in input order; each cover
    list names the codimension-1 faces (an empty list means the face covers
    only the empty face).
    """

    def __init__(self, ids: Sequence[str], covers: Sequence[Sequence[str]],
                 facet_order: Sequence[str] | None = None):
        if len(ids) != len(covers):
            raise InputError("ids and covers must have equal length")
        if any(i == "" for i in ids):
            raise InputError('the id "" is reserved for the empty face')
        self.ids: tuple[str, ...] = ("",) + tuple(ids)
        if len(set(self.ids)) != len(self.ids):
            seen = set()
            dup = next(i for i in self.ids if i in seen or seen.add(i))
            raise DuplicateFaceId(f"duplicate face id {dup!r}")
        self.index_of: dict[str, int] = {fid: i for i, fid in enumerate(self.ids)}

        cover_idx: list[tuple[int, ...]] = [()]
        for cs in covers:
            for c in cs:
                if c not in self.index_of:
                    raise UnknownFace(c)
            cover_idx.append(tuple(sorted({self.index_of[c] for c in cs}))
                             or (EMPTY,))
        self.covers: tuple[tuple[int, ...], ...] = tuple(cover_idx)

        self.rank, self.down, self.up = self._ranks_and_bounds()
        vertex_mask = sum(1 << v for v in self.vertices())
        self.atoms: tuple[int, ...] = tuple(d & vertex_mask for d in self.down)
        self._validate_boolean_intervals()

        maximal = [f for f in range(len(self.ids)) if self.up[f] == 1 << f]
        if facet_order is not None:
            order = []
            for fid in facet_order:
                if fid not in self.index_of:
                    raise UnknownFace(fid)
                order.append(self.index_of[fid])
            if sorted(order) != sorted(maximal):
                raise InputError("facet_order must list exactly the maximal faces")
            self.facets: tuple[int, ...] = tuple(order)
        else:
            self.facets = tuple(maximal)

        self.dim: int = max(self.rank) - 1
        self.maximal_chain_count: int = self._count_maximal_chains()

        # memo tables for ring arithmetic and the subdivision; append-only,
        # each key stored once with its finished value by setdefault
        self._straighten_cache: dict = {}
        self._param_cache: dict = {}
        self._sd_cache: dict[str, SdMap] = {}

    # -- construction helpers -------------------------------------------------

    def _topo_order(self) -> list[int]:
        n = len(self.ids)
        indeg = [0] * n
        above: list[list[int]] = [[] for _ in range(n)]
        for f in range(n):
            for c in self.covers[f]:
                above[c].append(f)
                indeg[f] += 1
        order, queue = [], [f for f in range(n) if indeg[f] == 0]
        while queue:
            f = queue.pop()
            order.append(f)
            for g in above[f]:
                indeg[g] -= 1
                if indeg[g] == 0:
                    queue.append(g)
        if len(order) != n:
            stuck = [self.ids[f] for f in range(n) if indeg[f] > 0]
            raise NotRanked(f"cover relations contain a cycle through {stuck}")
        return order

    def _ranks_and_bounds(self) -> tuple[tuple[int, ...], ...]:
        """Ranks, and downsets and upsets as face bitmasks, from one pass up
        the topological order and one pass down it."""
        order = self._topo_order()
        rank = [0] * len(order)
        down = [1 << f for f in range(len(order))]
        for f in order:
            if f == EMPTY:
                continue
            ranks_below = {rank[c] for c in self.covers[f]}
            if len(ranks_below) != 1:
                raise NotRanked(
                    f"face {self.ids[f]!r} covers faces of unequal rank")
            rank[f] = ranks_below.pop() + 1
            for c in self.covers[f]:
                down[f] |= down[c]
        up = [1 << f for f in range(len(order))]
        for f in reversed(order):
            for c in self.covers[f]:
                up[c] |= up[f]
        return tuple(rank), tuple(down), tuple(up)

    def _validate_boolean_intervals(self) -> None:
        """Check that every lower interval is a boolean lattice.

        At every face f of rank r: f has r atoms, ``down f`` has 2^r faces,
        and no two of them share an atom set, so ``b -> atoms b`` is a
        bijection from ``down f`` onto the subsets of ``atoms f``.  Atom sets
        then order faces with no check of their own: if ``atoms b`` is inside
        ``atoms c`` with b, c <= f, the bijection at c gives b' <= c with the
        atoms of b, and injectivity at f gives b = b', so b <= c.
        """
        for f in range(len(self.ids)):
            r = self.rank[f]
            down = self.down[f]
            if self.atoms[f].bit_count() != r or down.bit_count() != 1 << r:
                raise LowerIntervalNotBoolean(
                    f"lower interval of face {self.ids[f]!r} is not a boolean "
                    f"lattice of rank {r}")
            if len({self.atoms[b] for b in mask_members(down)}) != 1 << r:
                raise LowerIntervalNotBoolean(
                    f"two faces below {self.ids[f]!r} share a vertex set")

    def _count_maximal_chains(self) -> int:
        count = [0] * len(self.ids)
        count[EMPTY] = 1
        for f in sorted(range(len(self.ids)), key=lambda g: self.rank[g]):
            if f != EMPTY:
                count[f] = sum(count[c] for c in self.covers[f])
        return sum(count[f] for f in self.facets)

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    def resolve(self, ref: int | str) -> int:
        if isinstance(ref, str):
            if ref not in self.index_of:
                raise UnknownFace(ref)
            return self.index_of[ref]
        if not 0 <= ref < len(self.ids):
            raise UnknownFace(str(ref))
        return ref

    def leq(self, a: int, b: int) -> bool:
        return bool(self.down[b] >> a & 1)

    def comparable(self, a: int, b: int) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def downset(self, f: int) -> list[int]:
        return list(mask_members(self.down[f]))

    def vertices(self) -> list[int]:
        return [f for f in range(len(self.ids)) if self.rank[f] == 1]

    def vertices_of(self, f: int) -> list[int]:
        return list(mask_members(self.atoms[f]))

    def faces_of_rank(self, r: int) -> list[int]:
        return [f for f in range(len(self.ids)) if self.rank[f] == r]

    @property
    def n(self) -> int:
        """Maximal rank: the number of labels a balancing must use."""
        return max(self.rank)

    def is_pure(self) -> bool:
        return len({self.rank[f] for f in self.facets}) <= 1

    def lub_set(self, a: int, b: int) -> list[int]:
        """Minimal common upper bounds of two faces (possibly empty)."""
        ub = self.up[a] & self.up[b]
        return [g for g in mask_members(ub) if self.down[g] & ub == 1 << g]

    def meet(self, a: int, b: int) -> int:
        """Greatest common lower bound, defined whenever a common upper bound exists."""
        if not (self.up[a] & self.up[b]):
            raise NoCommonUpperBound(
                f"faces {self.ids[a]!r} and {self.ids[b]!r} have no common "
                f"upper bound")
        common = self.down[a] & self.down[b]
        best = max(mask_members(common), key=lambda f: self.rank[f])
        # inside a boolean interval the common lower bounds form the downset
        # of the meet, so the maximum is unique
        return best


# -- balancings ----------------------------------------------------------------


class Balancing:
    """A vertex labeling with the derived label set of every face.

    Top-level balancings use the labels 1..n; label-selected subcomplexes
    inherit sub-collections, which is why validation only asks that every
    facet see each used label exactly once.
    """

    def __init__(self, complex: BooleanComplex, labels: Mapping[str, int]):
        self.complex = complex
        got = {}
        for fid, lb in labels.items():
            i = complex.resolve(fid)
            if complex.rank[i] != 1:
                raise InvalidBalancing(f"{fid!r} is not a vertex")
            if int(lb) < 1:
                raise InvalidBalancing("labels must be positive integers")
            got[i] = int(lb)
        missing = [complex.ids[v] for v in complex.vertices() if v not in got]
        if missing:
            raise InvalidBalancing(f"unlabeled vertices: {missing}")
        self.vertex_label: dict[int, int] = got
        self.labels: frozenset[int] = frozenset(got.values())
        self.n: int = max(got.values(), default=0)
        self.label_sets: tuple[frozenset[int], ...] = tuple(
            frozenset(got[v] for v in complex.vertices_of(f))
            for f in range(len(complex)))

    @property
    def is_standard(self) -> bool:
        """Do the labels form the full collection 1..n?"""
        return self.labels == frozenset(range(1, self.n + 1))

    def label_set(self, f: int) -> frozenset[int]:
        return self.label_sets[f]

    def key(self) -> tuple:
        """Hashable identity used for caching expansions of label-row sums."""
        return tuple(sorted(self.vertex_label.items()))


def validate_balancing(complex: BooleanComplex, balancing: Balancing) -> bool:
    """True iff the complex is pure of the right dimension and every facet
    sees each label of the collection exactly once."""
    collection = balancing.labels
    if not complex.is_pure() or complex.n != len(collection):
        return False
    for eps in complex.facets:
        verts = complex.vertices_of(eps)
        if len(verts) != len(collection):
            return False
        if frozenset(balancing.vertex_label[v] for v in verts) != collection:
            return False
    return True


def require_valid_balancing(complex: BooleanComplex, balancing: Balancing,
                            standard: bool = True) -> None:
    """Raise unless the balancing is valid; the vector-graded machinery also
    needs the label collection to be exactly 1..n."""
    if balancing.complex is not complex:
        raise InvalidBalancing("balancing belongs to a different complex")
    if not validate_balancing(complex, balancing):
        raise InvalidBalancing("labeling is not a balancing of this complex")
    if standard and not balancing.is_standard:
        raise InvalidBalancing(
            f"this operation needs labels exactly 1..{balancing.n}; "
            f"got {sorted(balancing.labels)}")


# -- constructors ----------------------------------------------------------------


def build_from_poset(faces: Iterable[Mapping], facet_order: Sequence[str] | None = None,
                     ) -> BooleanComplex:
    """Build a complex from a Hasse-diagram description.

    Each entry is a mapping with keys ``id`` and ``covers`` (list of ids of
    the codimension-1 faces; empty or absent means the face covers only the
    empty face, which is always implicit).
    """
    ids, covers = [], []
    for i, entry in enumerate(faces):
        if not isinstance(entry, Mapping) or "id" not in entry:
            raise InputError(f'face {i} must be an object with an "id"')
        cs = entry.get("covers", [])
        if not isinstance(cs, (list, tuple)):
            raise InputError(f'"covers" of face {entry["id"]!r} must be a list')
        ids.append(str(entry["id"]))
        covers.append([str(c) for c in cs])
    if not ids:
        raise EmptyInput("a complex needs at least one face")
    if facet_order is not None:
        facet_order = [str(f) for f in facet_order]
    return BooleanComplex(ids, covers, facet_order)


def face_id_of_vertex_set(vertices: Iterable[str]) -> str:
    return ",".join(sorted(vertices))


def build_from_facets(facets: Iterable[Iterable[str]]) -> BooleanComplex:
    """Build the simplicial complex whose faces are all subsets of the facets.

    Face ids are sorted comma-joined vertex tuples; facets are ordered
    lexicographically by vertex tuple.
    """
    facet_sets: list[frozenset[str]] = []
    for f in facets:
        fs = frozenset(str(v) for v in f)
        if not fs:
            raise EmptyInput("facets must be nonempty vertex sets")
        facet_sets.append(fs)
    if not facet_sets:
        raise EmptyInput("at least one facet is required")
    # collapse duplicates and facets contained in others
    maximal = [f for f in set(facet_sets)
               if not any(f < g for g in facet_sets)]
    all_faces: set[frozenset[str]] = set()
    for f in maximal:
        for r in range(1, len(f) + 1):
            all_faces.update(map(frozenset, itertools.combinations(sorted(f), r)))
    ordered = sorted(all_faces, key=lambda s: (len(s), tuple(sorted(s))))
    ids = [face_id_of_vertex_set(s) for s in ordered]
    covers = []
    for s in ordered:
        if len(s) == 1:
            covers.append([])
        else:
            covers.append([face_id_of_vertex_set(s - {v}) for v in sorted(s)])
    facet_ids = [face_id_of_vertex_set(s)
                 for s in sorted(maximal, key=lambda s: tuple(sorted(s)))]
    return BooleanComplex(ids, covers, facet_ids)


# -- barycentric subdivision ------------------------------------------------------


@dataclass(frozen=True)
class SdMap:
    """The subdivision of a complex, with the chain dictionary both ways.

    ``chain_of[i]`` is the chain of source faces (ascending rank) that the
    i-th face of the target represents; ``face_of_chain`` inverts it.  The
    target carries the canonical balancing labeling each vertex by the rank
    of the source face it subdivides.
    """

    source: BooleanComplex
    target: BooleanComplex
    chain_of: tuple[tuple[int, ...], ...]
    face_of_chain: Mapping[tuple[int, ...], int]
    balancing: Balancing


def sd_face_id(source: BooleanComplex, chain: Sequence[int]) -> str:
    return "_".join(source.ids[f] for f in chain)


def barycentric_subdivision(complex: BooleanComplex) -> SdMap:
    """The order complex of the face poset, as a validated boolean complex.

    Faces of the target are the nonempty chains of nonempty faces of the
    source; ids join the chain's member ids with underscores.  Faces are
    ordered by (length, top-down member indices), which also fixes the facet
    order.
    """
    if "sd" in complex._sd_cache:
        return complex._sd_cache["sd"]
    chains: list[tuple[int, ...]] = []

    def grow(chain: tuple[int, ...]) -> None:
        chains.append(chain)
        top = chain[-1]
        for g in mask_members(complex.up[top] ^ 1 << top):
            grow(chain + (g,))

    for f in range(1, len(complex)):
        grow((f,))
    chains.sort(key=lambda c: (len(c), tuple(reversed(c))))

    ids = [sd_face_id(complex, c) for c in chains]
    covers = []
    for c in chains:
        if len(c) == 1:
            covers.append([])
        else:
            covers.append([sd_face_id(complex, c[:k] + c[k + 1:])
                           for k in range(len(c))])
    target = BooleanComplex(ids, covers)
    chain_of = ((),) + tuple(chains)
    face_of_chain = {c: i + 1 for i, c in enumerate(chains)}
    labels = {sd_face_id(complex, (f,)): complex.rank[f]
              for f in range(1, len(complex))}
    balancing = Balancing(target, labels)
    sd = SdMap(complex, target, chain_of, face_of_chain, balancing)
    return complex._sd_cache.setdefault("sd", sd)


# -- label-selected subcomplexes ---------------------------------------------------


def label_selected(complex: BooleanComplex, balancing: Balancing,
                   labels: Iterable[int]) -> BooleanComplex:
    """The subcomplex of faces whose label set is contained in ``labels``.

    The face set is downward closed, so the induced Hasse diagram is the
    restriction of the original one.  Face ids are preserved; facets are the
    maximal selected faces in original index order.
    """
    require_valid_balancing(complex, balancing, standard=False)
    selected = frozenset(labels)
    member = [f for f in range(1, len(complex))
              if balancing.label_set(f) <= selected]
    ids = [complex.ids[f] for f in member]
    keep = set(member)
    covers = []
    for f in member:
        covers.append([complex.ids[c] for c in complex.covers[f]
                       if c != EMPTY and c in keep])
    if not member:
        return BooleanComplex([], [])
    return BooleanComplex(ids, covers)
