"""JSON document formats for complexes, balancings, groups, and results.

Complex documents (UTF-8):

    {"kind": "simplicial", "facets": [["0", "1", "2"], ...]}
    {"kind": "poset",
     "faces": [{"id": "v", "covers": []},
               {"id": "alpha", "covers": ["v", "w"]}, ...],
     "facet_order": ["alpha", "beta"]}        # optional

The empty face is implicit; ``covers: []`` means the face covers only the
empty face.  Balancing documents are ``{"labels": {"v": 1, "w": 2}}``.
Group documents list generators as face maps, or vertex maps for simplicial
complexes:

    {"generators": [{"map": {"alpha": "beta", "beta": "alpha"}},
                    {"vertex_map": {"0": "1", "1": "0"}}]}
"""

from __future__ import annotations

import json
from typing import Any

from .complexes import Balancing, BooleanComplex, build_from_facets, build_from_poset
from .equivariant import (
    Group,
    automorphism_from_face_map,
    automorphism_from_vertex_map,
    close_group,
)
from .errors import InputError


def load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, too deep
        raise InputError(f"cannot decode {path}: {exc}") from exc


def complex_from_document(doc: Any) -> BooleanComplex:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError('complex documents need a "kind" key')
    kind = doc["kind"]
    if kind == "simplicial":
        facets = doc.get("facets")
        if not isinstance(facets, list):
            raise InputError('simplicial documents need a "facets" list')
        for i, facet in enumerate(facets):
            if not isinstance(facet, list):
                raise InputError(f"facet {i} must be a list of vertices")
        return build_from_facets(facets)
    if kind == "poset":
        faces = doc.get("faces")
        if not isinstance(faces, list):
            raise InputError('poset documents need a "faces" list')
        facet_order = doc.get("facet_order")
        if facet_order is not None and not isinstance(facet_order, list):
            raise InputError('"facet_order" must be a list of face ids')
        return build_from_poset(faces, facet_order)
    raise InputError(f"unknown complex kind {kind!r}")


def balancing_from_document(complex: BooleanComplex, doc: Any) -> Balancing:
    if not isinstance(doc, dict) or not isinstance(doc.get("labels"), dict):
        raise InputError('balancing documents need a "labels" map')
    return Balancing(complex, {str(k): _label(k, v)
                               for k, v in doc["labels"].items()})


def _label(face: str, value: Any) -> int:
    """An integer label, given as a JSON integer or a decimal string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise InputError(f"label of {face!r} must be an integer, got {value!r}")


def group_from_document(complex: BooleanComplex, doc: Any) -> Group:
    if not isinstance(doc, dict) or not isinstance(doc.get("generators"), list):
        raise InputError('group documents need a "generators" list')
    generators = []
    for i, entry in enumerate(doc["generators"]):
        if not isinstance(entry, dict):
            raise InputError(f"generator {i} must be an object")
        if "map" in entry:
            key, build = "map", automorphism_from_face_map
        elif "vertex_map" in entry:
            key, build = "vertex_map", automorphism_from_vertex_map
        else:
            raise InputError(f'generator {i} needs a "map" or "vertex_map"')
        if not isinstance(entry[key], dict):
            raise InputError(f'"{key}" of generator {i} must be an object')
        try:
            generators.append(build(
                complex, {str(k): str(v) for k, v in entry[key].items()}))
        except InputError as exc:
            exc.args = (f"generator {i}: {exc}",)  # keeps the class
            raise
    return close_group(complex, generators)


def element_to_document(element) -> dict:
    """Serialize a ring element: list of {coeff, monomial} in canonical order."""
    return {"terms": [{"coeff": str(c),
                       "monomial": [[element.complex.ids[f], e] for f, e in m]}
                      for m, c in element.sorted_terms()]}
