"""Output checks that recompute what they can from the input documents.

None of these trust facering's row reduction.  Counts (facets of the
subdivision, flag numbers per label set) and incidences come from the
document alone; a "not Cohen-Macaulay" certificate is re-multiplied here
over the job's field.  Every checker returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import comb


def facet_sets(doc: dict) -> list[frozenset]:
    """Maximal facets of a simplicial complex document."""
    sets = [frozenset(str(v) for v in f) for f in doc["facets"]]
    return sorted({f for f in sets if not any(f < g for g in sets)},
                  key=sorted)


def faces_of(facets) -> set[frozenset]:
    """Every nonempty face of a simplicial complex given by its facets."""
    out = set()
    for f in facets:
        for r in range(1, len(f) + 1):
            out.update(map(frozenset, itertools.combinations(sorted(f), r)))
    return out


def _face_id(face) -> str:
    return ",".join(sorted(face))


def _chain(sd_id: str) -> list[str]:
    """Members of a subdivision face, named by their face ids."""
    return sd_id.split("_") if sd_id else []


def _labels(sd_id: str) -> frozenset[int]:
    """Canonical balancing of the subdivision: the rank of each chain member."""
    return frozenset(len(member.split(",")) for member in _chain(sd_id))


def maximal_chains(facets) -> list[str]:
    """Ids of the subdivision's facets: flags of every facet."""
    out = []
    for f in facets:
        for perm in itertools.permutations(sorted(f)):
            out.append("_".join(_face_id(perm[:k])
                                for k in range(1, len(perm) + 1)))
    return out


def flag_number(facets, labels) -> int:
    """Chains with rank set exactly ``labels``: the facet count of the
    label-selected subcomplex of the subdivision."""
    s = sorted(labels)
    if not s:
        return 1
    top = sum(1 for f in faces_of(facets) if len(f) == s[-1])
    for lo, hi in zip(s, s[1:]):
        top *= comb(hi, lo)
    return top


def _load(stdout: str) -> tuple[dict | None, list[str]]:
    try:
        payload = json.loads(stdout)
    except ValueError:
        return None, ["stdout is not JSON"]
    if not isinstance(payload, dict):
        return None, ["stdout is not a JSON object"]
    return payload, []


def _check_facet_order(payload: dict, facets) -> list[str]:
    if sorted(payload.get("facet_order", [])) != sorted(maximal_chains(facets)):
        return ["facet_order is not the set of maximal chains"]
    return []


def _square_everywhere(members: list[str], facets) -> list[str]:
    n = max(len(f) for f in facets)
    for r in range(n + 1):
        for s in itertools.combinations(range(1, n + 1), r):
            key = frozenset(s)
            inside = sum(1 for m in members if _labels(m) <= key)
            if inside != flag_number(facets, key):
                return [f"label set {list(s)}: {inside} members against "
                        f"{flag_number(facets, key)} facets"]
    return []


def check_basis(stdout: str, facets) -> list[str]:
    """A CM verdict: one member per facet of the subdivision, label sets that
    match the member chains, and a square block for every label set."""
    payload, problems = _load(stdout)
    if payload is None:
        return problems
    if payload.get("verdict") != "cm":
        return [f"expected verdict cm, got {payload.get('verdict')!r}"]
    basis = payload.get("basis", [])
    members = [b.get("face") for b in basis]
    if len(members) != len(maximal_chains(facets)):
        return [f"basis has {len(members)} members, the subdivision has "
                f"{len(maximal_chains(facets))} facets"]
    if len(set(members)) != len(members):
        return ["basis repeats a member"]
    for b in basis:
        if sorted(_labels(b["face"])) != b.get("label_set"):
            return [f"member {b['face']!r} reports label set {b.get('label_set')}"]
    return _check_facet_order(payload, facets) + _square_everywhere(members,
                                                                   facets)


def check_verify(stdout: str, facets, candidate: str) -> list[str]:
    """``verify`` of a returned basis: valid, and every per-label-set count
    equal to the count made here from the document."""
    payload, problems = _load(stdout)
    if payload is None:
        return problems
    if payload.get("valid") is not True:
        return ["verify reports the returned basis invalid"]
    members = json.loads(candidate)
    entries = payload.get("label_sets", [])
    n = max(len(f) for f in facets)
    if len(entries) != 2 ** n:
        return [f"{len(entries)} label sets reported, expected {2 ** n}"]
    for e in entries:
        key = frozenset(e["labels"])
        inside = sum(1 for m in members if _labels(m) <= key)
        want = flag_number(facets, key)
        if (e.get("members") != inside or e.get("facets") != want
                or e.get("square") is not True
                or e.get("nonsingular") is not True):
            return [f"label set {e['labels']}: got {e}, expected "
                    f"{inside} members and {want} facets, square, nonsingular"]
    return []


def _scalar(text: str, field: str):
    value = Fraction(text)
    if field == "rational":
        return value
    if value.denominator != 1:
        raise ValueError(f"{text!r} is not a residue")
    return value.numerator % int(field[3:])


def check_not_cm(stdout: str, facets, field: str) -> list[str]:
    """A not-CM verdict: the representation reproduces the witness's 0/1
    facet incidence, and uses a member whose label set is not inside the
    witness's."""
    payload, problems = _load(stdout)
    if payload is None:
        return problems
    if payload.get("verdict") != "not-cm":
        return [f"expected verdict not-cm, got {payload.get('verdict')!r}"]
    problems = _check_facet_order(payload, facets)
    if problems:
        return problems
    order = payload["facet_order"]
    witness = payload.get("witness", "")
    try:
        rep = [(m, _scalar(c, field))
               for m, c in payload.get("representation", [])]
    except (ValueError, ZeroDivisionError) as exc:
        return [f"bad coefficient: {exc}"]
    chains = [set(_chain(eps)) for eps in order]

    def incidence(sd_id: str) -> list[int]:
        members = set(_chain(sd_id))
        return [1 if members <= eps else 0 for eps in chains]

    total = [0] * len(order)
    for m, c in rep:
        for j, x in enumerate(incidence(m)):
            total[j] += c * x
    if field != "rational":
        total = [t % int(field[3:]) for t in total]
    if total != incidence(witness):
        return ["representation does not reproduce the witness incidence"]
    if not any(c != 0 and not _labels(m) <= _labels(witness) for m, c in rep):
        return ["representation uses only members inside the witness's "
                "label set"]
    return []


def check_cross_term(stdout: str, d: int) -> list[str]:
    payload, problems = _load(stdout)
    if payload is None:
        return problems
    if payload.get("d") != d:
        return [f"cross-term reports d={payload.get('d')}, asked for {d}"]
    if payload.get("coefficient") != "3" or payload.get("odd") is not True:
        return [f"cross-term coefficient {payload.get('coefficient')!r}, "
                f"odd={payload.get('odd')!r}; expected '3' and true"]
    return []


def check_equivariant(stdout: str, order: int, basis_size: int) -> list[str]:
    payload, problems = _load(stdout)
    if payload is None:
        return problems
    report = payload.get("report", {})
    if report.get("equivariant") is not True or report.get("isomorphism") is not True:
        return [f"equivariant={report.get('equivariant')!r}, "
                f"isomorphism={report.get('isomorphism')!r}; expected both true"]
    if payload.get("group_order") != order:
        return [f"group order {payload.get('group_order')}, expected {order}"]
    if len(payload.get("basis", [])) != basis_size:
        return [f"basis has {len(payload.get('basis', []))} members, "
                f"expected {basis_size}"]
    return []


def check_represent(stdout: str, basis_size: int) -> list[str]:
    payload, problems = _load(stdout)
    if payload is None:
        return problems
    basis = payload.get("basis", [])
    coefficients = payload.get("coefficients", [])
    if len(basis) != basis_size:
        return [f"basis has {len(basis)} members, expected {basis_size}"]
    if [c.get("member") for c in coefficients] != basis:
        return ["coefficients do not list the basis members in order"]
    return []


def poset_facet_count(doc: dict) -> int:
    """Facets of the subdivision of a poset document: its maximal chains."""
    covers = {f["id"]: f.get("covers", []) for f in doc["faces"]}
    covered = {c for cs in covers.values() for c in cs}
    chains: dict[str, int] = {}

    def count(face: str) -> int:
        if face not in chains:
            below = covers[face]
            chains[face] = sum(count(c) for c in below) if below else 1
        return chains[face]

    return sum(count(f) for f in covers if f not in covered)
