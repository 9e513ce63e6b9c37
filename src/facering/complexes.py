"""Boolean complexes as validated augmented face posets.

A boolean complex is stored through its augmented face poset: the unique
empty face (always index 0, id ``""``) plus the nonempty faces.  A complex
built from a document is validated against the simplicial-poset axioms: its
covers resolve, they have a topological order (the cycle check), the poset
is ranked, and every lower interval is a boolean lattice.  A barycentric
subdivision is the order complex of a face poset, so a simplicial complex by
construction; its faces come after their covers, and it is not validated.
Both paths share one derivation: a pass up a topological order and a pass
down it build every derived table (ranks, downsets, upsets, atom sets, faces
by rank, facets, chain counts); queries read these tables, which never
change, and never rescan the faces.  The memo caches for ring arithmetic and
the subdivision are the only mutable state: they are append-only, and each
key is stored once, with its finished value, by ``dict.setdefault``.
Concurrent readers may repeat work, but they never see a partial result,
and all of them get the first stored value.

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
    list names the codimension-1 faces by id or index, as :meth:`resolve`
    takes them (an empty list means the face covers only the empty face).
    """

    def __init__(self, ids: Sequence[str], covers: Sequence[Sequence[int | str]],
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
            cover_idx.append(tuple(sorted({self.resolve(c) for c in cs}))
                             or (EMPTY,))
        self.covers: tuple[tuple[int, ...], ...] = tuple(cover_idx)

        order = self._cover_order()
        self._derive_tables(order)
        self._validate(order)
        if facet_order is not None:
            facets = []
            for fid in facet_order:
                if fid not in self.index_of:
                    raise UnknownFace(fid)
                facets.append(self.index_of[fid])
            if sorted(facets) != sorted(self.facets):
                raise InputError("facet_order must list exactly the maximal faces")
            self.facets = tuple(facets)

    @classmethod
    def _from_order_complex(cls, ids: Sequence[str],
                            covers: Sequence[tuple[int, ...]]) -> BooleanComplex:
        """The order complex of a boolean complex's face poset, which is
        simplicial by construction, so nothing is validated.  ``ids`` and
        ``covers`` describe the nonempty faces as ``__init__`` takes them,
        except that each cover tuple holds sorted indices (``(EMPTY,)`` for a
        vertex), every face comes after its covers, and the ids are distinct."""
        self = object.__new__(cls)
        self.ids = ("",) + tuple(ids)
        self.index_of = {fid: i for i, fid in enumerate(self.ids)}
        self.covers = ((),) + tuple(covers)
        self._derive_tables(range(len(self.ids)))
        return self

    # -- construction ----------------------------------------------------------

    def _cover_order(self) -> list[int]:
        """One topological order of the covers, by Kahn's algorithm: the only
        cycle check."""
        ids, covers, size = self.ids, self.covers, len(self.ids)
        indeg = [len(cs) for cs in covers]
        above: list[list[int]] = [[] for _ in range(size)]
        for f, cs in enumerate(covers):
            for c in cs:
                above[c].append(f)
        order, queue = [], [EMPTY]
        while queue:
            f = queue.pop()
            order.append(f)
            for g in above[f]:
                indeg[g] -= 1
                if indeg[g] == 0:
                    queue.append(g)
        if len(order) != size:
            stuck = [ids[f] for f in range(size) if indeg[f] > 0]
            raise NotRanked(f"cover relations contain a cycle through {stuck}")
        return order

    def _derive_tables(self, order: Sequence[int]) -> None:
        """Every derived table from a topological order of the covers, which
        are not checked: ranks, downsets and atom sets in one pass up it,
        upsets in one pass down it, then the faces of each rank, the facets
        (the maximal faces in index order) and empty memos."""
        covers, size = self.covers, len(self.ids)
        rank = [0] * size
        down = [1 << f for f in range(size)]
        atoms = [0] * size
        for f in order[1:]:
            cs = covers[f]
            r = rank[f] = rank[cs[0]] + 1
            d, a = down[f], 0
            for c in cs:
                d |= down[c]
                a |= atoms[c]
            down[f], atoms[f] = d, a if r > 1 else 1 << f
        up = [1 << f for f in range(size)]
        for f in reversed(order):
            u = up[f]
            for c in covers[f]:
                up[c] |= u
        by_rank: list[list[int]] = [[] for _ in range(max(rank) + 1)]
        for f in range(size):
            by_rank[rank[f]].append(f)
        maximal = [f for f in range(size) if up[f] == 1 << f]
        self.rank: tuple[int, ...] = tuple(rank)
        self.down: tuple[int, ...] = tuple(down)
        self.up: tuple[int, ...] = tuple(up)
        self.atoms: tuple[int, ...] = tuple(atoms)
        self._by_rank = tuple(map(tuple, by_rank))
        self.facets: tuple[int, ...] = tuple(maximal)
        # memo tables for ring arithmetic and the subdivision; append-only,
        # each key stored once with its finished value by setdefault
        self._straighten_cache: dict = {}
        self._theta_step_cache: dict = {}
        self._sd_cache: dict[str, SdMap] = {}

    def _validate(self, order: list[int]) -> None:
        """Validate a document's poset up the topological order the tables
        were derived over: every face covers faces of one rank (``NotRanked``
        at the first that does not), and every lower interval is boolean."""
        ids, covers, rank, down, atoms = (
            self.ids, self.covers, self.rank, self.down, self.atoms)
        failure: tuple[int, int, str] | None = None  # (rank, index, message)
        for f in order[1:]:
            cs, r = covers[f], rank[f]
            for c in cs:
                if rank[c] + 1 != r:
                    raise NotRanked(f"face {ids[f]!r} covers faces of unequal rank")
            # f of rank r needs r atoms, 2^r faces in ``down f`` and r covers
            # with distinct atom sets, the r sets ``atoms f - {v}``.  When the
            # covers' intervals are boolean, ``b -> atoms b`` maps the 2^r
            # faces of ``down f`` onto the 2^r subsets of ``atoms f``, hence
            # bijectively; and a boolean interval passes, its rank r - 1
            # faces being f's covers.  Atom sets then order faces with no
            # check of their own: if ``atoms b`` is inside ``atoms c`` with
            # b, c <= f, the bijection at c gives b' <= c with the atoms of b,
            # and injectivity at f gives b = b', so b <= c.  So the failure
            # with the least (rank, index) is the one reported, after the pass:
            # only boolean intervals lie below it, and NotRanked wins over it.
            if failure is not None and failure[:2] < (r, f):
                continue
            if atoms[f].bit_count() != r or down[f].bit_count() != 1 << r:
                failure = (r, f, f"lower interval of face {ids[f]!r} is not "
                                 f"a boolean lattice of rank {r}")
            elif len(cs) != r or len({atoms[c] for c in cs}) != r:
                failure = (r, f, f"two faces below {ids[f]!r} share a vertex set")
        if failure is not None:
            raise LowerIntervalNotBoolean(failure[2])

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

    def vertices(self) -> list[int]:
        return self.faces_of_rank(1)

    def vertices_of(self, f: int) -> list[int]:
        return list(mask_members(self.atoms[f]))

    def faces_of_rank(self, r: int) -> list[int]:
        """The faces of rank r in index order (none outside 0..n)."""
        return list(self._by_rank[r]) if 0 <= r < len(self._by_rank) else []

    @property
    def n(self) -> int:
        """Maximal rank: the number of labels a balancing must use."""
        return len(self._by_rank) - 1

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
    """A balancing of ``complex``: a labeling of its vertices under which the
    complex is pure and every facet sees each label 1..n exactly once, where
    n = ``complex.n`` (Stanley, *Balanced Cohen-Macaulay complexes*, 1979).

    It is checked once, here, and ``InvalidBalancing`` names what fails.
    Label sets are built in rank order from covers: a vertex's is its own
    label, and a face of rank at least 2 takes the union of its first two
    covers' sets, which together hold its vertices.  ``faces_by_label_set``
    holds the faces of each label set that occurs, in index order; it never
    changes.
    """

    def __init__(self, complex: BooleanComplex, labels: Mapping[int | str, int]):
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
        self.n: int = complex.n
        sets: list[frozenset[int]] = [frozenset()] * len(complex)
        for v in complex.vertices():
            sets[v] = frozenset((got[v],))
        for r in range(2, complex.n + 1):
            for f in complex.faces_of_rank(r):
                c0, c1 = complex.covers[f][:2]
                sets[f] = sets[c0] | sets[c1]
        # a facet has as many vertices as its rank, at most n: it sees n
        # labels iff it has rank n and sees each of its labels once
        facet_sets = {sets[eps] for eps in complex.facets}
        seen = facet_sets.pop()
        if facet_sets or len(seen) != self.n:
            raise InvalidBalancing("labeling is not a balancing of this complex")
        if seen != frozenset(range(1, self.n + 1)):
            raise InvalidBalancing(
                f"a balancing of this complex needs labels exactly 1..{self.n}; "
                f"got {sorted(seen)}")
        self.label_sets: tuple[frozenset[int], ...] = tuple(sets)
        grouped: dict[frozenset[int], list[int]] = {}
        for f, s in enumerate(self.label_sets):
            grouped.setdefault(s, []).append(f)
        self.faces_by_label_set: Mapping[frozenset[int], tuple[int, ...]] = {
            s: tuple(fs) for s, fs in grouped.items()}


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

    Face ids are sorted comma-joined vertex tuples, so a vertex name may not
    contain a comma; facets are ordered lexicographically by vertex tuple.
    """
    facet_sets: list[frozenset[str]] = []
    for f in facets:
        fs = frozenset(str(v) for v in f)
        if not fs:
            raise EmptyInput("facets must be nonempty vertex sets")
        for v in fs:
            if "," in v:
                raise InputError(f"vertex name {v!r} contains ','; face ids "
                                 "join vertex names with ','")
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
    i-th face of the target represents; ``face_of_chain`` inverts it.  When
    the source is pure, ``balancing`` is the target's canonical balancing,
    which labels each vertex by the rank of the source face it subdivides;
    otherwise the target is not pure either, and ``balancing`` is ``None``.
    """

    source: BooleanComplex
    target: BooleanComplex
    chain_of: tuple[tuple[int, ...], ...]
    face_of_chain: Mapping[tuple[int, ...], int]
    balancing: Balancing | None


def barycentric_subdivision(complex: BooleanComplex) -> SdMap:
    """The order complex of the face poset, a boolean complex by construction.

    Faces of the target are the nonempty chains of nonempty faces of the
    source; ids join the chain's member ids with underscores.  Faces are
    ordered by (length, top-down member indices), which also fixes the facet
    order.  The chains are listed level by level in that order, so each comes
    after its covers, the chains one shorter, and the target's tables are
    derived from them with no validation.
    """
    if "sd" in complex._sd_cache:
        return complex._sd_cache["sd"]
    src_ids, down, size = complex.ids, complex.down, len(complex)
    # the chains of one length, grouped by top face, each group in target order
    by_top: list[list[tuple[int, ...]]] = [[]] + [[(f,)] for f in range(1, size)]
    chains: list[tuple[int, ...]] = []
    while any(by_top):
        chains += (c for cs in by_top for c in cs)
        by_top = [[]] + [[c + (g,) for t in mask_members(down[g] ^ 1 << g ^ 1)
                          for c in by_top[t]] for g in range(1, size)]
    face_of_chain = {c: i for i, c in enumerate(chains, 1)}

    ids = ["_".join(src_ids[f] for f in c) for c in chains]
    if len(set(ids)) != len(ids):
        named: dict[str, tuple[int, ...]] = {}
        for fid, c in zip(ids, chains):
            if (other := named.setdefault(fid, c)) is not c:
                raise InputError(f"subdivision face id {fid!r} names two chains, "
                                 f"{[src_ids[f] for f in other]} and "
                                 f"{[src_ids[f] for f in c]}; rename the "
                                 "faces whose ids contain '_'")
    covers = [tuple(sorted(face_of_chain[c[:k] + c[k + 1:]]
                           for k in range(len(c)))) if len(c) > 1 else (EMPTY,)
              for c in chains]
    target = BooleanComplex._from_order_complex(ids, covers)
    chain_of = ((),) + tuple(chains)
    labels = {face_of_chain[(f,)]: complex.rank[f] for f in range(1, len(complex))}
    balancing = Balancing(target, labels) if complex.is_pure() else None
    sd = SdMap(complex, target, chain_of, face_of_chain, balancing)
    return complex._sd_cache.setdefault("sd", sd)


# -- label-selected subcomplexes ---------------------------------------------------


def label_selected(balancing: Balancing, labels: Iterable[int]) -> BooleanComplex:
    """The subcomplex of faces whose label set is contained in ``labels``.

    The face set is downward closed, so the induced Hasse diagram is the
    restriction of the original one.  Face ids are preserved; facets are the
    maximal selected faces in original index order.  The vertices keep their
    labels, which balance the subcomplex only once mapped order-preservingly
    onto 1..k.
    """
    complex, selected = balancing.complex, frozenset(labels)
    member = [f for f in range(1, len(complex))
              if balancing.label_sets[f] <= selected]
    index = {f: i for i, f in enumerate(member, 1)}
    ids = [complex.ids[f] for f in member]
    covers = [[index[c] for c in complex.covers[f] if c in index]
              for f in member]
    return BooleanComplex(ids, covers)
