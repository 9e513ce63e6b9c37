"""Command-line surface.

Subcommands: check-cm, basis, straighten, transfer, represent,
equivariant-iso, verify, fine-vectors, cross-term.  Exit codes: 0 on
success (a "not Cohen-Macaulay" verdict is a result, not an error), 1 on
domain errors or when stdout is closed before the output is written (a
broken pipe, as in ``| head``), 2 on input or parse errors.  Each
subcommand accepts only the flags its handler reads; any other flag, like a
missing required one, exits 2.  All output is deterministic given the inputs.
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
from .complexes import Balancing, BooleanComplex, SdMap, barycentric_subdivision
from .equivariant import (
    CROSS_TERM_MAX_D,
    average,
    build_phi,
    check_degree_bound,
    odd_cross_term_witness,
    verify_morphism,
)
from .errors import DomainError, InputError, InvalidBalancing
from .expressions import RingLexicon, format_element, parse_element
from .face_ring import fine_vectors
from .transfer import TransferContext, express_on_transferred_basis


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
        except RecursionError as exc:
            raise InputError("inline JSON nests too deeply to decode") from exc
    if not isinstance(ids, list):
        raise InputError(f"expected a JSON list of face ids, got {text!r}")
    return [str(f) for f in ids]


def _sd_balancing(sd: SdMap) -> Balancing:
    if sd.balancing is None:
        raise InvalidBalancing(
            "the complex is not pure, so its subdivision has no balancing")
    return sd.balancing


def _balancing(args) -> Balancing:
    base = documents.complex_from_document(documents.load_json(args.input))
    if args.sd:
        return _sd_balancing(barycentric_subdivision(base))
    return documents.balancing_from_document(base, documents.load_json(args.balancing))


def _verdict_payload(complex: BooleanComplex, verdict: CMVerdict) -> dict:
    if verdict.cohen_macaulay:
        basis = verdict.basis
        payload: dict = {
            "verdict": "cm",
            "basis": [{"face": complex.ids[m],
                       "label_set": sorted(basis.balancing.label_sets[m])}
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
    balancing = _balancing(args)
    verdict = compute_basis(balancing, field, order=_face_ids(args.order))
    _emit(args, _verdict_payload(balancing.complex, verdict))
    return 0


def _base_complex(args) -> BooleanComplex:
    base = documents.complex_from_document(documents.load_json(args.input))
    if args.sd:
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
        return RingLexicon(sd.target, field, letter="z")
    return RingLexicon(base, field, letter=letter)


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
    ctx = TransferContext(barycentric_subdivision(base))
    if args.inverse:
        lexicon = RingLexicon(base, field, letter="x")
        element = ctx.garsia_inverse(parse_element(args.expr, lexicon))
        _emit_element(args, element, "y")
    else:
        lexicon = RingLexicon(base, field, letter="y")
        element = ctx.garsia(parse_element(args.expr, lexicon))
        _emit_element(args, element, "x")
    return 0


def _run_represent(args) -> int:
    field = FieldSpec.parse(args.field)
    base = _base_complex(args)
    element = parse_element(args.expr, RingLexicon(base, field, letter="x"))
    sd = barycentric_subdivision(base)
    verdict = compute_basis(_sd_balancing(sd), field, order=_face_ids(args.order))
    if not verdict.cohen_macaulay:
        _emit(args, _verdict_payload(sd.target, verdict))
        return 0
    ctx = TransferContext(sd)
    rep = express_on_transferred_basis(ctx, verdict.basis, element)
    coefficients = [
        {"member": sd.target.ids[m],
         "image": format_element(ctx.member_image(m, field), "x"),
         "polynomial": str(rep.coefficients[m])}
        for m in verdict.basis.members]
    _emit(args, {"basis": [sd.target.ids[m] for m in verdict.basis.members],
                 "coefficients": coefficients})
    return 0


def _run_equivariant_iso(args) -> int:
    field = FieldSpec.parse(args.field)
    if args.degree_bound is not None:
        check_degree_bound(args.degree_bound)
    base = _base_complex(args)
    group = documents.group_from_document(base, documents.load_json(args.group))
    sd = barycentric_subdivision(base)
    verdict = compute_basis(_sd_balancing(sd), field, order=_face_ids(args.order))
    if not verdict.cohen_macaulay:
        _emit(args, _verdict_payload(sd.target, verdict))
        return 0
    averaged = average(build_phi(TransferContext(sd), verdict.basis), group)
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
    report = verify_basis(_balancing(args), field, _face_ids(args.candidate))
    payload = {
        "valid": report.valid,
        "label_sets": [{"labels": list(s), **info}
                       for s, info in sorted(report.per_label_set.items(),
                                             key=lambda kv: (len(kv[0]), kv[0]))],
    }
    _emit(args, payload)
    return 0


def _run_fine_vectors(args) -> int:
    balancing = _balancing(args)
    f_vec, h_vec = fine_vectors(balancing)
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


# Each flag's add_argument keywords; the command table below picks from these.
_FLAGS = {
    "input": dict(required=True, help="path to a complex JSON document"),
    "field": dict(default="rational",
                  help="coefficient field: rational or gf:<p>"),
    "balancing": dict(help="path to a balancing JSON document"),
    "sd": dict(action="store_true",
               help="operate on the barycentric subdivision of the input"),
    "group": dict(required=True, help="path to a group JSON document"),
    "order": dict(help="JSON list of face ids (inline or a file path) "
                       "fixing the processing order"),
    "degree-bound": dict(type=int),
    "expr": dict(required=True),
    "inverse": dict(action="store_true",
                    help="transfer from the face ring to the subdivision ring"),
    "candidate": dict(required=True,
                      help="JSON list of face ids (inline or a file path)"),
    "d": dict(type=int, required=True,
              help=f"the simplex dimension, 2..{CROSS_TERM_MAX_D}"),
    "json": dict(action="store_true", dest="as_json",
                 help="force JSON output for expression commands"),
    "pretty": dict(action="store_true", help="indent JSON output"),
}

# A tuple is a mutually exclusive group.  --sd brings the canonical
# balancing, so exactly one of it and --balancing is required.
_SD_OR_BALANCING = ("sd", "balancing")
_JSON_OR_PRETTY = ("json", "pretty")

# Each subcommand: its help, its handler and the flags that handler reads.
# argparse rejects every other flag.
_COMMANDS = [
    ("check-cm", "decide Cohen-Macaulayness by the facet-vector test",
     _run_basis_command, ["input", "field", _SD_OR_BALANCING, "order", "pretty"]),
    ("basis", "compute a cell basis over the parameter subring",
     _run_basis_command, ["input", "field", _SD_OR_BALANCING, "order", "pretty"]),
    ("straighten", "normalize an expression onto the standard-monomial basis",
     _run_straighten, ["input", "field", "sd", "expr", _JSON_OR_PRETTY]),
    ("transfer", "apply the transfer (or its inverse) to an expression",
     _run_transfer, ["input", "field", "sd", "expr", "inverse", _JSON_OR_PRETTY]),
    ("represent", "express a face-ring element over the parameter subring "
                  "on the transferred basis",
     _run_represent, ["input", "field", "sd", "order", "expr", "pretty"]),
    ("equivariant-iso", "build and group-average the basis-transfer morphism",
     _run_equivariant_iso,
     ["input", "field", "sd", "group", "order", "degree-bound", "pretty"]),
    ("verify", "check a proposed cell basis",
     _run_verify, ["input", "field", _SD_OR_BALANCING, "candidate", "pretty"]),
    ("fine-vectors", "face counts per label set and their "
                     "inclusion-exclusion transform",
     _run_fine_vectors, ["input", _SD_OR_BALANCING, "pretty"]),
    ("cross-term", "the odd cross-term of the product of the first d "
                   "parameters on a simplex",
     _run_cross_term, ["d", "pretty"]),
]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls,
    which must not modify it."""
    parser = argparse.ArgumentParser(
        prog="facering",
        description="Exact computations in Stanley-Reisner rings of boolean "
                    "complexes and their barycentric subdivisions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc, handler, flags in _COMMANDS:
        p = sub.add_parser(name, help=doc)
        p.set_defaults(handler=handler, command_parser=p)
        for entry in flags:
            if isinstance(entry, tuple):
                group = p.add_mutually_exclusive_group(
                    required=entry == _SD_OR_BALANCING)
                for flag in entry:
                    group.add_argument(f"--{flag}", **_FLAGS[flag])
            else:
                p.add_argument(f"--{entry}", **_FLAGS[entry])
    return parser


def run(argv=None) -> int:
    try:
        args, unread = build_parser().parse_known_args(argv)
        if unread:
            # report with the subcommand's usage, which lists its flags
            args.command_parser.error(
                f"unrecognized arguments: {' '.join(unread)}")
    except SystemExit as exc:  # argparse: 2 for a rejected flag, 0 for --help
        return exc.code
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ZeroDivisionError) as exc:
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
