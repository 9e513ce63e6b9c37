"""Command-line surface.

Subcommands: check-cm, basis, straighten, transfer, represent,
equivariant-iso, verify, fine-vectors, cross-term.  Exit codes: 0 on
success (a "not Cohen-Macaulay" verdict is a result, not an error), 1 on
domain errors or when stdout is closed before the output is written (a
broken pipe, as in ``| head``), 2 on input or parse errors.  All output is
deterministic given the inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import documents
from .cm_basis import CMVerdict, compute_basis, verify_basis
from .coeff import FieldSpec
from .complexes import Balancing, BooleanComplex, barycentric_subdivision
from .equivariant import (
    CROSS_TERM_MAX_D,
    average,
    build_phi,
    odd_cross_term_witness,
    verify_morphism,
)
from .errors import DomainError, InputError
from .expressions import RingLexicon, format_element, parse_element
from .face_ring import fine_vectors
from .transfer import TransferContext, express_on_transferred_basis


def _add_common(parser: argparse.ArgumentParser, *, needs_input=True) -> None:
    if needs_input:
        parser.add_argument("--input", required=True,
                            help="path to a complex JSON document")
    parser.add_argument("--field", default="rational",
                        help="coefficient field: rational or gf:<p>")
    parser.add_argument("--balancing", help="path to a balancing JSON document")
    parser.add_argument("--group", help="path to a group JSON document")
    parser.add_argument("--order",
                        help="JSON list of face ids (inline or a file path) "
                             "fixing the processing order")
    parser.add_argument("--degree-bound", type=int, default=None)
    parser.add_argument("--sd", action="store_true",
                        help="operate on the barycentric subdivision of the input")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", dest="as_json",
                     help="force JSON output for expression commands")
    fmt.add_argument("--pretty", action="store_true",
                     help="indent JSON output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls,
    which must not modify it."""
    parser = argparse.ArgumentParser(
        prog="facering",
        description="Exact computations in Stanley-Reisner rings of boolean "
                    "complexes and their barycentric subdivisions.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in [
            ("check-cm", "decide Cohen-Macaulayness by the facet-vector test"),
            ("basis", "compute a cell basis over the parameter subring")]:
        p = sub.add_parser(name, help=doc)
        _add_common(p)

    p = sub.add_parser("straighten", help="normalize an expression onto the "
                                          "standard-monomial basis")
    _add_common(p)
    p.add_argument("--expr", required=True)

    p = sub.add_parser("transfer", help="apply the transfer (or its inverse) "
                                        "to an expression")
    _add_common(p)
    p.add_argument("--expr", required=True)
    p.add_argument("--inverse", action="store_true",
                   help="transfer from the face ring to the subdivision ring")

    p = sub.add_parser("represent", help="express a face-ring element over the "
                                         "parameter subring on the transferred basis")
    _add_common(p)
    p.add_argument("--expr", required=True)

    p = sub.add_parser("equivariant-iso",
                       help="build and group-average the basis-transfer morphism")
    _add_common(p)

    p = sub.add_parser("verify", help="check a proposed cell basis")
    _add_common(p)
    p.add_argument("--candidate", required=True,
                   help="JSON list of face ids (inline or a file path)")

    p = sub.add_parser("fine-vectors", help="face counts per label set and "
                                            "their inclusion-exclusion transform")
    _add_common(p)

    p = sub.add_parser("cross-term", help="the odd cross-term of the product "
                                          "of the first d parameters on a simplex")
    _add_common(p, needs_input=False)
    p.add_argument("--d", type=int, required=True,
                   help=f"the simplex dimension, 2..{CROSS_TERM_MAX_D}")

    return parser


def _emit(args, payload) -> None:
    indent = 2 if args.pretty else None
    print(json.dumps(payload, indent=indent))


def _face_ids(text: str | None) -> list[str] | None:
    """A JSON list of face ids, given inline or as a file path."""
    if not text:
        return None
    if os.path.exists(text):
        ids = documents.load_json(text)
    else:
        try:
            ids = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"not valid JSON and not a file: {text!r} ({exc})")
    if not isinstance(ids, list):
        raise InputError(f"expected a JSON list of face ids, got {text!r}")
    return [str(f) for f in ids]


def _balanced_context(args) -> tuple[BooleanComplex, Balancing]:
    base = documents.complex_from_document(documents.load_json(args.input))
    if args.sd:
        sd = barycentric_subdivision(base)
        return sd.target, sd.balancing
    if not args.balancing:
        raise InputError("supply --balancing, or --sd for the canonical one")
    balancing = documents.balancing_from_document(
        base, documents.load_json(args.balancing))
    return base, balancing


def _verdict_payload(complex: BooleanComplex, verdict: CMVerdict) -> dict:
    if verdict.cohen_macaulay:
        basis = verdict.basis
        payload: dict = {
            "verdict": "cm",
            "basis": [{"face": complex.ids[m],
                       "label_set": sorted(basis.balancing.label_set(m))}
                      for m in basis.members],
        }
    else:
        payload = {
            "verdict": "not-cm",
            "witness": complex.ids[verdict.witness],
            "representation": [[complex.ids[m], str(c)]
                               for m, c in verdict.representation],
        }
    payload["facet_order"] = [complex.ids[f] for f in complex.facets]
    return payload


def _run_basis_command(args) -> int:
    field = FieldSpec.parse(args.field)
    complex, balancing = _balanced_context(args)
    verdict = compute_basis(complex, balancing, field,
                            order=_face_ids(args.order))
    _emit(args, _verdict_payload(complex, verdict))
    return 0


def _base_complex(args) -> BooleanComplex:
    base = documents.complex_from_document(documents.load_json(args.input))
    if getattr(args, "sd", False):
        base = barycentric_subdivision(base).target
    return base


def _detect_letter(expr: str) -> str:
    for i, ch in enumerate(expr):
        if ch in "xyz" and expr[i + 1:i + 2] == "[":
            return ch
    return "x"


def _lexicon_for(args, expr: str, field: FieldSpec) -> RingLexicon:
    base = _base_complex(args)
    letter = _detect_letter(expr)
    if letter == "z":
        sd = barycentric_subdivision(base)
        return RingLexicon(sd.target, field, discrete=False, letter="z")
    return RingLexicon(base, field, discrete=(letter == "y"), letter=letter)


def _emit_element(args, element, letter: str) -> None:
    if args.as_json or args.pretty:
        _emit(args, documents.element_to_document(element))
    else:
        print(format_element(element, letter))


def _run_straighten(args) -> int:
    field = FieldSpec.parse(args.field)
    lexicon = _lexicon_for(args, args.expr, field)
    element = parse_element(args.expr, lexicon)
    _emit_element(args, element, lexicon.letter)
    return 0


def _run_transfer(args) -> int:
    field = FieldSpec.parse(args.field)
    base = _base_complex(args)
    ctx = TransferContext(barycentric_subdivision(base), field)
    if args.inverse:
        lexicon = RingLexicon(base, field, discrete=False, letter="x")
        element = ctx.garsia_inverse(parse_element(args.expr, lexicon))
        _emit_element(args, element, "y")
    else:
        lexicon = RingLexicon(base, field, discrete=True, letter="y")
        element = ctx.garsia(parse_element(args.expr, lexicon))
        _emit_element(args, element, "x")
    return 0


def _sd_basis_or_verdict(args, field: FieldSpec):
    base = _base_complex(args)
    sd = barycentric_subdivision(base)
    verdict = compute_basis(sd.target, sd.balancing, field,
                            order=_face_ids(args.order))
    return base, sd, verdict


def _run_represent(args) -> int:
    field = FieldSpec.parse(args.field)
    base, sd, verdict = _sd_basis_or_verdict(args, field)
    if not verdict.cohen_macaulay:
        _emit(args, _verdict_payload(sd.target, verdict))
        return 0
    ctx = TransferContext(sd, field)
    lexicon = RingLexicon(base, field, discrete=False, letter="x")
    element = parse_element(args.expr, lexicon)
    rep = express_on_transferred_basis(ctx, verdict.basis, element)
    coefficients = [
        {"member": sd.target.ids[m],
         "image": format_element(ctx.member_image(m), "x"),
         "polynomial": str(rep.coefficients[m])}
        for m in verdict.basis.members]
    _emit(args, {"basis": [sd.target.ids[m] for m in verdict.basis.members],
                 "coefficients": coefficients})
    return 0


def _run_equivariant_iso(args) -> int:
    field = FieldSpec.parse(args.field)
    if not args.group:
        raise InputError("equivariant-iso needs --group")
    base, sd, verdict = _sd_basis_or_verdict(args, field)
    if not verdict.cohen_macaulay:
        _emit(args, _verdict_payload(sd.target, verdict))
        return 0
    group = documents.group_from_document(base, documents.load_json(args.group))
    ctx = TransferContext(sd, field)
    averaged = average(build_phi(ctx, verdict.basis), group)
    report = verify_morphism(averaged, group, args.degree_bound)
    payload = {
        "group_order": group.order,
        "basis": [sd.target.ids[m] for m in verdict.basis.members],
        "images": [{"member": sd.target.ids[m],
                    "element": format_element(averaged.images[m], "x")}
                   for m in verdict.basis.members],
        "report": {"equivariant": report.equivariant,
                   "isomorphism": report.isomorphism,
                   "failures": report.failures},
    }
    _emit(args, payload)
    return 0


def _run_verify(args) -> int:
    field = FieldSpec.parse(args.field)
    complex, balancing = _balanced_context(args)
    candidate = _face_ids(args.candidate)
    report = verify_basis(complex, balancing, field, candidate)
    payload = {
        "valid": report.valid,
        "label_sets": [{"labels": list(s), **info}
                       for s, info in sorted(report.per_label_set.items(),
                                             key=lambda kv: (len(kv[0]), kv[0]))],
    }
    _emit(args, payload)
    return 0


def _run_fine_vectors(args) -> int:
    complex, balancing = _balanced_context(args)
    f_vec, h_vec = fine_vectors(complex, balancing)
    payload = {
        "n": balancing.n,
        "f": [{"labels": list(s), "count": c} for s, c in f_vec.items()],
        "h": [{"labels": list(s), "count": c} for s, c in h_vec.items()],
    }
    _emit(args, payload)
    return 0


def _run_cross_term(args) -> int:
    witness = odd_cross_term_witness(args.d)
    payload = {
        "d": args.d,
        "monomial": "*".join(f"x[{f}]" + (f"^{e}" if e > 1 else "")
                             for f, e in witness.monomial),
        "coefficient": str(witness.coefficient),
        "shape": str(witness.shape),
        "staircase": str(witness.staircase),
        "strictly_dominated": witness.strictly_dominated,
        "odd": witness.odd,
    }
    _emit(args, payload)
    return 0


_HANDLERS = {
    "check-cm": _run_basis_command,
    "basis": _run_basis_command,
    "straighten": _run_straighten,
    "transfer": _run_transfer,
    "represent": _run_represent,
    "equivariant-iso": _run_equivariant_iso,
    "verify": _run_verify,
    "fine-vectors": _run_fine_vectors,
    "cross-term": _run_cross_term,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZeroDivisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
