"""Seeded job lists for the three benchmark workloads.

A workload is a list of slots.  Each slot has a fixed number of variants,
and the run seed picks one variant per slot, so the same seed always gives
the same documents and argument lists.  Variants of one slot are built to
cost about the same (same complex sizes, same degree bounds, same
exponents), so the seed changes the inputs without changing how much work
a round does.  The variants are finite so that every job's stdout has a
digest recorded in ``digests.json`` (see ``record_digests.py``).

Each slot yields one or more cases.  A case is a first job plus an optional
follow-up built from the first job's stdout (``verify --candidate`` on the
basis just returned).  The facering program only ever sees the JSON
documents written here and the argument lists.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from checks import (
    check_basis,
    check_cross_term,
    check_equivariant,
    check_not_cm,
    check_represent,
    check_verify,
    facet_sets,
    faces_of,
    maximal_chains,
    poset_facet_count,
)

WORKLOADS = ("cm", "straighten", "equivariant")
FIELDS = ("rational", "gf:2", "gf:32003")
VARIANTS = 8  # seeded inputs per slot, unless the slot lists its own


@dataclass
class Job:
    """One CLI invocation, with what its result must look like."""

    name: str
    argv: list[str]
    key: str
    expect_code: int = 0
    probe: bool = False
    check: Callable[[str], list[str]] | None = None
    follow: Callable[[str], "Job | None"] | None = None


class DocWriter:
    """Writes documents into the work directory, one file per distinct content,
    and keys jobs by content so that digests survive renamed directories."""

    def __init__(self, root: str):
        self.root = root
        self.paths: dict[str, str] = {}
        self.content_of: dict[str, str] = {}

    def write(self, obj) -> str:
        text = json.dumps(obj, sort_keys=True)
        tag = hashlib.sha256(text.encode()).hexdigest()[:16]
        path = self.paths.get(tag)
        if path is None:
            path = os.path.join(self.root, f"{tag}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.paths[tag] = path
            self.content_of[path] = tag
        return path

    def job(self, name: str, argv: list[str], **kw) -> Job:
        key = " ".join("@" + self.content_of[a] if a in self.content_of else a
                       for a in argv)
        return Job(name, argv, key, **kw)


@dataclass
class Slot:
    name: str
    variants: int
    make: Callable[[int, DocWriter], list[Job]]


def simplicial(facets) -> dict:
    return {"kind": "simplicial", "facets": [sorted(f) for f in facets]}


# -- random pure simplicial complexes ---------------------------------------------

VERTEX_NAMES = [str(i) for i in range(10)] + list("abcdefghjkmnpqrstuvwxyz")


def _vertex_names(rng: random.Random, count: int) -> list[str]:
    return rng.sample(VERTEX_NAMES, count)


def shellable(rng: random.Random, d: int, verts: list[str],
              n_facets: int) -> list[frozenset]:
    """A shellable (hence Cohen-Macaulay) pure d-complex: each new facet meets
    the union of the earlier ones in a pure (d-1)-dimensional subcomplex."""
    while True:
        facets = [frozenset(rng.sample(verts, d + 1))]
        for _ in range(200):
            if len(facets) == n_facets:
                return facets
            g = rng.choice(facets)
            v = rng.choice(sorted(g))
            outside = [u for u in verts if u not in g]
            f = (g - {v}) | {rng.choice(outside)}
            if f in facets:
                continue
            meets = [f & h for h in facets]
            maximal = [s for s in meets if not any(s < t for t in meets)]
            if all(len(s) == d for s in maximal):
                facets.append(f)


def not_cm(rng: random.Random, d: int, verts: list[str], n_shelled: int,
           glue: int) -> list[frozenset]:
    """A shellable part plus one facet meeting it in a single face of
    ``glue`` vertices.  For glue <= d-1 the link of that face is disconnected
    and of dimension >= 1, so the complex is not Cohen-Macaulay over any
    field."""
    new = d + 1 - glue
    base = shellable(rng, d, verts[:-new], n_shelled)
    sigma = rng.sample(sorted(rng.choice(base)), glue)
    return base + [frozenset(sigma) | frozenset(verts[-new:])]


# -- cm -----------------------------------------------------------------------------

def _cm_case(w: DocWriter, name: str, facets, fld: str, expect_cm: bool,
             command: str) -> list[Job]:
    doc = simplicial(facets)
    path = w.write(doc)
    fsets = facet_sets(doc)

    def follow(stdout: str) -> Job | None:
        try:
            payload = json.loads(stdout)
        except ValueError:
            return None
        if payload.get("verdict") != "cm":
            return None
        candidate = json.dumps([b["face"] for b in payload["basis"]])
        return w.job(name + "/verify",
                     ["verify", "--input", path, "--sd", "--field", fld,
                      "--candidate", candidate],
                     check=lambda out: check_verify(out, fsets, candidate))

    if expect_cm:
        check = lambda out: check_basis(out, fsets)  # noqa: E731
    else:
        check = lambda out: check_not_cm(out, fsets, fld)  # noqa: E731
    return [w.job(name, [command, "--input", path, "--sd", "--field", fld],
                  check=check, follow=follow)]


# (family name, dimension, vertices, facets, glue size or None for shellable)
CM_FAMILIES = [
    ("shell-d2", 2, 6, 4, None),
    ("shell-d2-small", 2, 5, 3, None),
    ("shell-d3", 3, 5, 2, None),
    ("glued-d2", 2, 7, 4, 1),
    ("glued-d3", 3, 7, 3, 2),
]
# Several complexes of each family and field per round, so that the median
# and tail latencies are order statistics of many seeded complexes, not of
# the few that one seed happens to draw.
CM_PER_FAMILY = 3


def _cm_random_slot(family, fld: str, i: int) -> Slot:
    fam, d, nv, nf, glue = family

    def make(v: int, w: DocWriter) -> list[Job]:
        rng = random.Random(f"cm/{fam}/{fld}/{i}/{v}")
        verts = _vertex_names(rng, nv)
        if glue is None:
            facets = shellable(rng, d, verts, nf)
        else:
            facets = not_cm(rng, d, verts, nf - 1, glue)
        return _cm_case(w, f"{fam}/{fld}", facets, fld, glue is None,
                        "check-cm")

    return Slot(f"{fam}/{fld}/{i}", VARIANTS, make)


def _cm_ladder_slot(d: int, fld: str) -> Slot:
    def make(v: int, w: DocWriter) -> list[Job]:
        facets = [frozenset(str(i) for i in range(d + 1))]
        return _cm_case(w, f"sd-simplex{d}/{fld}", facets, fld, True, "basis")

    return Slot(f"sd-simplex{d}/{fld}", 1, make)


def _probe(w: DocWriter, name: str, argv: list[str], code: int) -> list[Job]:
    return [w.job(name, argv, expect_code=code, probe=True,
                  check=lambda out: [] if out == "" else ["stdout not empty"])]


DOUBLE_EDGE = {"kind": "poset", "faces": [
    {"id": "v", "covers": []}, {"id": "w", "covers": []},
    {"id": "alpha", "covers": ["v", "w"]},
    {"id": "beta", "covers": ["v", "w"]}]}


def _probe_missing_id(v: int, w: DocWriter) -> list[Job]:
    faces = [dict(f) for f in DOUBLE_EDGE["faces"]]
    del faces[v % len(faces)]["id"]
    path = w.write({"kind": "poset", "faces": faces})
    return _probe(w, "probe/face-without-id",
                  ["check-cm", "--input", path, "--sd"], 2)


def _probe_label(v: int, w: DocWriter) -> list[Job]:
    bad = ["one", "first", "I", "label-1"][v]
    path = w.write(DOUBLE_EDGE)
    bal = w.write({"labels": {"v": bad, "w": 2}})
    return _probe(w, "probe/non-integer-label",
                  ["check-cm", "--input", path, "--balancing", bal], 2)


def _probe_facet(v: int, w: DocWriter) -> list[Job]:
    bad = [5, 2.5, None, True][v]
    path = w.write({"kind": "simplicial", "facets": [["0", "1"], bad]})
    return _probe(w, "probe/facet-not-a-list",
                  ["check-cm", "--input", path, "--sd"], 2)


def cm_slots() -> list[Slot]:
    slots = [_cm_ladder_slot(d, fld) for d in (2, 3, 4) for fld in FIELDS]
    slots += [_cm_random_slot(fam, fld, i) for fam in CM_FAMILIES
              for fld in FIELDS for i in range(CM_PER_FAMILY)]
    slots += [Slot("probe/face-without-id", 4, _probe_missing_id),
              Slot("probe/non-integer-label", 4, _probe_label),
              Slot("probe/facet-not-a-list", 4, _probe_facet)]
    return slots


# -- straighten -------------------------------------------------------------------

COLORED_DISK = {"kind": "poset", "faces": [
    {"id": "s", "covers": []}, {"id": "t", "covers": []},
    {"id": "u", "covers": []}, {"id": "v", "covers": []},
    {"id": "alpha", "covers": ["s", "u"]}, {"id": "beta", "covers": ["t", "u"]},
    {"id": "gamma", "covers": ["s", "v"]}, {"id": "delta", "covers": ["t", "v"]},
    {"id": "epsilon", "covers": ["u", "v"]}, {"id": "zeta", "covers": ["u", "v"]},
    {"id": "P", "covers": ["alpha", "gamma", "epsilon"]},
    {"id": "Q", "covers": ["beta", "delta", "epsilon"]},
    {"id": "R", "covers": ["beta", "delta", "zeta"]}]}


def renamed_double_edge(rng: random.Random) -> tuple[dict, str, str]:
    """The double edge with seeded face ids; returns the document and the
    ids of its two vertices."""
    v, w, a, b = rng.sample(VERTEX_NAMES, 4)
    a, b = "e" + a, "e" + b
    doc = {"kind": "poset", "faces": [
        {"id": v, "covers": []}, {"id": w, "covers": []},
        {"id": a, "covers": [v, w]}, {"id": b, "covers": [v, w]}]}
    return doc, v, w


def multi_edge_gluing(rng: random.Random) -> tuple[dict, str, str]:
    """A seeded boolean complex: a cycle of 3-5 vertices whose edges have
    multiplicity 1-3 (the first edge exactly 2), with triangles glued over
    some triples of edges.  Returns the document and the ends of the
    doubled edge."""
    n = rng.randint(3, 5)
    verts = rng.sample(VERTEX_NAMES, n)
    faces = [{"id": x, "covers": []} for x in verts]
    edges: dict[tuple[str, str], list[str]] = {}
    pairs = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    if n > 3:
        pairs.append((verts[0], verts[2]))
    for i, (x, y) in enumerate(pairs):
        edges[(x, y)] = []
        for _ in range(2 if i == 0 else rng.randint(1, 3)):
            fid = f"e{len(faces)}"
            faces.append({"id": fid, "covers": [x, y]})
            edges[(x, y)].append(fid)
    for a, b, c in itertools.combinations(verts, 3):
        sides = [edges.get((x, y)) or edges.get((y, x))
                 for x, y in ((a, b), (b, c), (a, c))]
        if all(sides):
            for _ in range(rng.randint(0, 2)):
                covers = sorted(rng.choice(s) for s in sides)
                if all(f.get("covers") != covers for f in faces):
                    faces.append({"id": f"T{len(faces)}", "covers": covers})
    return {"kind": "poset", "faces": faces}, pairs[0][0], pairs[0][1]


def as_poset(doc: dict) -> dict:
    """The face poset of a complex document, with the ids facering gives it."""
    if doc["kind"] == "poset":
        return doc
    faces = sorted(faces_of(facet_sets(doc)), key=lambda f: (len(f), sorted(f)))
    return {"kind": "poset", "faces": [
        {"id": ",".join(sorted(f)),
         "covers": [",".join(sorted(f - {v})) for v in f] if len(f) > 1 else []}
        for f in faces]}


def _downset(doc: dict, top: str) -> list[str]:
    covers = {f["id"]: f.get("covers", []) for f in doc["faces"]}
    out, todo = set(), [top]
    while todo:
        f = todo.pop()
        if f not in out:
            out.add(f)
            todo.extend(covers[f])
    return sorted(out)


def _ranks(doc: dict) -> dict[str, int]:
    covers = {f["id"]: f.get("covers", []) for f in doc["faces"]}
    rank: dict[str, int] = {}

    def r(f: str) -> int:
        if f not in rank:
            rank[f] = 1 + (r(covers[f][0]) if covers[f] else 0)
        return rank[f]

    for f in covers:
        r(f)
    return rank


def _tops(rank: dict[str, int]) -> list[str]:
    return sorted(f for f in rank if rank[f] == max(rank.values()))


def random_product(rng: random.Random, doc: dict, letter: str,
                   degree: tuple[int, int]) -> str:
    """A product of generators below one random face, with total degree
    (sum of exponent times rank) in the given range."""
    rank = _ranks(doc)
    below = _downset(doc, rng.choice(_tops(rank)))
    while True:
        factors = rng.sample(below, rng.randint(2, min(4, len(below))))
        exps = [rng.randint(1, 4) for _ in factors]
        total = sum(e * rank[f] for f, e in zip(factors, exps))
        if degree[0] <= total <= degree[1]:
            return "*".join(f"{letter}[{f}]" + (f"^{e}" if e > 1 else "")
                            for f, e in zip(factors, exps))


def random_chain_monomial(rng: random.Random, doc: dict, letter: str) -> str:
    """A standard monomial: positive exponents on a random chain."""
    rank = _ranks(doc)
    covers = {f["id"]: f.get("covers", []) for f in doc["faces"]}
    chain = [rng.choice(_tops(rank))]
    while covers[chain[-1]]:
        chain.append(rng.choice(sorted(covers[chain[-1]])))
    chain = rng.sample(chain, rng.randint(1, len(chain)))
    return "*".join(f"{letter}[{f}]^{rng.randint(1, 4)}" for f in chain)


SEEDED_COMPLEXES = ("double-edge", "colored-disk", "gluing")


def _host(kind: str, rng: random.Random) -> dict:
    if kind == "colored-disk":
        return COLORED_DISK
    return (renamed_double_edge if kind == "double-edge"
            else multi_edge_gluing)(rng)[0]


def _deep_power_slot(k: int) -> Slot:
    """x[v]^k*x[w]^k on a doubled edge: the memo grows with k^2."""
    def make(v: int, w: DocWriter) -> list[Job]:
        rng = random.Random(f"deep/{k}/{v}")
        doc, a, b = (renamed_double_edge if v % 2 == 0
                     else multi_edge_gluing)(rng)
        path = w.write(doc)
        return [w.job(f"deep-power/{k}",
                      ["straighten", "--input", path,
                       "--expr", f"x[{a}]^{k}*x[{b}]^{k}"])]

    return Slot(f"deep-power/{k}", VARIANTS, make)


def _product_slot(kind: str, i: int) -> Slot:
    def make(v: int, w: DocWriter) -> list[Job]:
        rng = random.Random(f"product/{kind}/{i}/{v}")
        doc = _host(kind, rng)
        path = w.write(doc)
        expr = random_product(rng, doc, "x", (6, 12))
        return [w.job(f"product/{kind}",
                      ["straighten", "--input", path, "--expr", expr])]

    return Slot(f"product/{kind}/{i}", VARIANTS, make)


def _transfer_slot(kind: str, i: int, inverse: bool) -> Slot:
    def make(v: int, w: DocWriter) -> list[Job]:
        rng = random.Random(f"transfer/{kind}/{i}/{inverse}/{v}")
        doc = _host(kind, rng)
        path = w.write(doc)
        if inverse:
            expr = random_product(rng, doc, "x", (4, 8))
            argv = ["transfer", "--inverse", "--input", path, "--expr", expr]
        else:
            expr = " + ".join(random_chain_monomial(rng, doc, "y")
                              for _ in range(rng.randint(1, 3)))
            argv = ["transfer", "--input", path, "--expr", expr]
        return [w.job(f"transfer/{kind}", argv)]

    return Slot(f"transfer/{kind}/{i}/{inverse}", VARIANTS, make)


def _cross_term_slot(d: int) -> Slot:
    def make(v: int, w: DocWriter) -> list[Job]:
        return [w.job(f"cross-term/{d}", ["cross-term", "--d", str(d)],
                      check=lambda out: check_cross_term(out, d))]

    return Slot(f"cross-term/{d}", 1, make)


def straighten_slots() -> list[Slot]:
    slots = [_deep_power_slot(k) for k in (100, 150, 200, 300)]
    slots += [_cross_term_slot(d) for d in (3, 4, 5)]
    slots += [_product_slot(kind, i) for kind in SEEDED_COMPLEXES
              for i in range(20)]
    slots += [_transfer_slot(kind, i, inverse) for kind in SEEDED_COMPLEXES
              for i in range(4) for inverse in (False, True)]
    return slots


# -- equivariant ------------------------------------------------------------------

def _cycle(*vs: int) -> dict:
    return {"vertex_map": {str(vs[i]): str(vs[(i + 1) % len(vs)])
                           for i in range(len(vs))}}


SWAP = {"map": {"alpha": "beta", "beta": "alpha"}}
# (name, document, group order, generating sets; every set generates the group)
EQUIVARIANT_COMPLEXES = {
    "double-edge": (DOUBLE_EDGE, 2, [
        [SWAP],
        [{"map": {"alpha": "beta", "beta": "alpha", "v": "v", "w": "w"}}],
        [SWAP, SWAP],
        [SWAP, {"map": {}}]]),
    "square": (simplicial([{"0", "1"}, {"1", "2"}, {"2", "3"}, {"0", "3"}]), 8, [
        [_cycle(0, 1, 2, 3), _cycle(1, 3)],
        [_cycle(0, 1, 2, 3), _cycle(0, 1) | {"vertex_map": {"0": "1", "1": "0",
                                                            "2": "3", "3": "2"}}],
        [_cycle(1, 3), {"vertex_map": {"0": "1", "1": "0", "2": "3", "3": "2"}}],
        [_cycle(3, 2, 1, 0), {"vertex_map": {"0": "3", "3": "0", "1": "2",
                                              "2": "1"}}]]),
    "triangle": (simplicial([{"0", "1", "2"}]), 6, [
        [_cycle(0, 1), _cycle(0, 1, 2)],
        [_cycle(0, 1), _cycle(1, 2)],
        [_cycle(0, 2), _cycle(0, 1, 2)],
        [_cycle(1, 2), _cycle(0, 2, 1)]]),
    "boundary-tetrahedron": (
        simplicial([set("012"), set("013"), set("023"), set("123")]), 24, [
            [_cycle(0, 1), _cycle(0, 1, 2, 3)],
            [_cycle(0, 1), _cycle(1, 2), _cycle(2, 3)],
            [_cycle(1, 2), _cycle(0, 1, 2, 3)],
            [_cycle(0, 1, 2), _cycle(0, 1, 2, 3)]]),
    "tetrahedron": (simplicial([set("0123")]), 24, [
        [_cycle(0, 1), _cycle(0, 1, 2, 3)],
        [_cycle(0, 1), _cycle(1, 2), _cycle(2, 3)],
        [_cycle(1, 2), _cycle(0, 1, 2, 3)],
        [_cycle(0, 1, 2), _cycle(0, 1, 2, 3)]]),
}
# Degree bounds per complex, chosen so that one round stays a few seconds;
# the default bound n(n+1) is far beyond that (see BENCHMARK.json).
EQUIVARIANT_BOUNDS = {
    "double-edge": (3, 4, 5, 6, 7, 8),
    "square": (3, 5, 8),
    "triangle": (3, 6, 8),
    "boundary-tetrahedron": (3, 4),
    "tetrahedron": (3, 5),
}


def _basis_size(doc: dict) -> int:
    if doc["kind"] == "poset":
        return poset_facet_count(doc)
    return len(maximal_chains(facet_sets(doc)))


def _iso_slot(name: str, bound: int, fld: str) -> Slot:
    doc, order, gensets = EQUIVARIANT_COMPLEXES[name]

    def make(v: int, w: DocWriter) -> list[Job]:
        path = w.write(doc)
        group = w.write({"generators": gensets[v]})
        return [w.job(f"iso/{name}/{bound}/{fld}",
                      ["equivariant-iso", "--input", path, "--group", group,
                       "--degree-bound", str(bound), "--field", fld],
                      check=lambda out: check_equivariant(out, order,
                                                          _basis_size(doc)))]

    return Slot(f"iso/{name}/{bound}/{fld}", len(gensets), make)


REPRESENT_HOSTS = ("double-edge", "double-edge", "double-edge", "double-edge",
                   "colored-disk", "colored-disk", "colored-disk",
                   "triangle", "triangle", "triangle")


def _represent_slot(i: int) -> Slot:
    kind = REPRESENT_HOSTS[i]

    def make(v: int, w: DocWriter) -> list[Job]:
        rng = random.Random(f"represent/{i}/{v}")
        doc = {"double-edge": DOUBLE_EDGE, "colored-disk": COLORED_DISK,
               "triangle": EQUIVARIANT_COMPLEXES["triangle"][0]}[kind]
        expr = ""
        for _ in range(rng.randint(1, 2)):
            sign = rng.choice(["+", "-"]) if expr else ""
            coeff = rng.choice(["", "2*", "3*", "1/2*"])
            term = coeff + random_product(rng, as_poset(doc), "x", (4, 7))
            expr += f" {sign} {term}" if expr else term
        path = w.write(doc)
        return [w.job(f"represent/{kind}",
                      ["represent", "--input", path, "--expr", expr],
                      check=lambda out: check_represent(out, _basis_size(doc)))]

    return Slot(f"represent/{i}", VARIANTS, make)


def _probe_generator(v: int, w: DocWriter) -> list[Job]:
    path = w.write(DOUBLE_EDGE)
    group = w.write({"generators": [[7, 2.5, None, True][v]]})
    return _probe(w, "probe/generator-not-an-object",
                  ["equivariant-iso", "--input", path, "--group", group,
                   "--degree-bound", "3"], 2)


def _probe_even_order(v: int, w: DocWriter) -> list[Job]:
    name = ("double-edge", "square", "triangle")[v]
    doc, _, gensets = EQUIVARIANT_COMPLEXES[name]
    path = w.write(doc)
    group = w.write({"generators": gensets[0]})
    return _probe(w, "probe/gf2-even-order",
                  ["equivariant-iso", "--input", path, "--group", group,
                   "--degree-bound", "3", "--field", "gf:2"], 1)


def equivariant_slots() -> list[Slot]:
    slots = [_iso_slot(name, bound, fld)
             for name, bounds in EQUIVARIANT_BOUNDS.items()
             for bound in bounds for fld in ("rational", "gf:32003")]
    slots += [_represent_slot(i) for i in range(len(REPRESENT_HOSTS))]
    slots += [Slot("probe/generator-not-an-object", 4, _probe_generator),
              Slot("probe/gf2-even-order", 3, _probe_even_order)]
    return slots


SLOTS = {"cm": cm_slots, "straighten": straighten_slots,
         "equivariant": equivariant_slots}
