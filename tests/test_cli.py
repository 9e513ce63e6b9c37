import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, strategies as st

from facering.cli import run

from conftest import sums

DOUBLE_EDGE = {
    "kind": "poset",
    "faces": [
        {"id": "v", "covers": []},
        {"id": "w", "covers": []},
        {"id": "alpha", "covers": ["v", "w"]},
        {"id": "beta", "covers": ["v", "w"]},
    ],
}

DISJOINT_EDGES = {"kind": "simplicial", "facets": [["a", "c"], ["b", "d"]]}
DISJOINT_BALANCING = {"labels": {"a": 1, "b": 1, "c": 2, "d": 2}}
SWAP_GROUP = {"generators": [{"map": {"alpha": "beta", "beta": "alpha"}}]}


@pytest.fixture
def docs(tmp_path):
    paths = {}
    for name, doc in [("double_edge", DOUBLE_EDGE),
                      ("disjoint_edges", DISJOINT_EDGES),
                      ("disjoint_balancing", DISJOINT_BALANCING),
                      ("swap_group", SWAP_GROUP)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_cm_not_cm_verdict(docs, capsys):
    code, payload = run_json(capsys, [
        "check-cm", "--input", docs["disjoint_edges"],
        "--balancing", docs["disjoint_balancing"], "--field", "gf:2"])
    assert code == 0  # a verdict, not an error
    assert payload["verdict"] == "not-cm"
    assert payload["witness"] == "c"
    assert payload["representation"] == [["a", "1"]]


@pytest.mark.parametrize("field, verdict", [
    ("rational", "cm"), ("gf:3", "cm"), ("gf:2", "not-cm")])
def test_check_cm_depends_on_characteristic(capsys, field, verdict):
    # the 6-vertex RP^2 is Cohen-Macaulay exactly over fields of
    # characteristic other than 2 (Reisner 1976), and so is its subdivision
    code, payload = run_json(capsys, [
        "check-cm", "--sd", "--input", os.path.join(DATA, "rp2.json"),
        "--field", field])
    assert code == 0
    assert payload["verdict"] == verdict


def test_basis_subdivision(docs, capsys):
    code, payload = run_json(capsys, [
        "basis", "--input", docs["double_edge"], "--sd", "--field", "rational"])
    assert code == 0
    assert payload["verdict"] == "cm"
    assert [entry["face"] for entry in payload["basis"]] == [
        "", "v", "alpha", "v_alpha"]
    assert payload["facet_order"] == ["v_alpha", "w_alpha", "v_beta", "w_beta"]


def test_straighten(docs, capsys):
    code = run(["straighten", "--input", docs["double_edge"],
                "--expr", "x[v]*x[w]"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "x[alpha] + x[beta]"


def test_straighten_deep_power(docs, capsys):
    code = run(["straighten", "--input", docs["double_edge"],
                "--expr", "x[v]^3000*x[w]^3000"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "x[alpha]^3000 + x[beta]^3000"


def test_straighten_discrete_and_cell_letters(docs, capsys):
    code = run(["straighten", "--input", docs["double_edge"],
                "--expr", "y[v]*y[w]"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"
    code = run(["straighten", "--input", docs["double_edge"],
                "--expr", "z[v]*z[w]"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"
    code = run(["straighten", "--input", docs["double_edge"],
                "--expr", "z[v]*z[v_alpha]"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "z[v]*z[v_alpha]"


def test_parse_error_exit_code(docs, capsys):
    code = run(["straighten", "--input", docs["double_edge"], "--expr", "x[v]+"])
    assert code == 2
    err = capsys.readouterr().err
    assert "column 6" in err


@pytest.mark.parametrize("field, code, out, err", [
    ("gf:2", 2, "", "error: coefficient '1/2' has no value in gf:2: "
                    "denominator 2 is not invertible mod 2\n"),
    ("gf:3", 0, "2*x[v]\n", ""),
], ids=["gf:2", "gf:3"])
def test_coefficient_outside_the_field_exit_2(field, code, out, err, capsys):
    assert run(["straighten", "--input", os.path.join(DATA, "double_edge.json"),
                "--field", field, "--expr", "1/2*x[v]"]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


def test_repeated_candidate_face_exit_2(capsys):
    # one distinct face, given twice, is not two members
    assert run(["verify", "--input", os.path.join(DATA, "double_edge.json"),
                "--sd", "--candidate", '["v", "v"]']) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: candidate lists face 'v' more than once\n")


def test_unknown_face_exit_code(docs, capsys):
    code = run(["straighten", "--input", docs["double_edge"], "--expr", "x[zz]"])
    assert code == 2


def test_transfer_roundtrip(docs, capsys):
    code = run(["transfer", "--input", docs["double_edge"],
                "--expr", "y[w]^2*y[beta]"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "x[w]^2*x[beta]"
    code = run(["transfer", "--inverse", "--input", docs["double_edge"],
                "--expr", "x[w]^2*x[beta]"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "y[w]^2*y[beta]"


def test_represent(docs, capsys):
    code, payload = run_json(capsys, [
        "represent", "--input", docs["double_edge"],
        "--expr", "x[w]^2*x[beta]"])
    assert code == 0
    table = {row["member"]: row["polynomial"] for row in payload["coefficients"]}
    assert table == {"": "t1^2*t2 - t2^2", "v": "-t1*t2",
                     "alpha": "-t1^2 + t2", "v_alpha": "t1"}


def test_equivariant_iso(docs, capsys):
    code, payload = run_json(capsys, [
        "equivariant-iso", "--input", docs["double_edge"],
        "--group", docs["swap_group"], "--degree-bound", "4"])
    assert code == 0
    assert payload["group_order"] == 2
    assert payload["report"] == {"equivariant": True, "isomorphism": True,
                                 "failures": []}


def test_equivariant_iso_obstructed(tmp_path, capsys):
    triangle = tmp_path / "triangle.json"
    triangle.write_text(json.dumps(
        {"kind": "simplicial", "facets": [["0", "1", "2"]]}))
    group = tmp_path / "s3.json"
    group.write_text(json.dumps({"generators": [
        {"vertex_map": {"0": "1", "1": "0"}},
        {"vertex_map": {"0": "1", "1": "2", "2": "0"}}]}))
    code = run(["equivariant-iso", "--input", str(triangle),
                "--group", str(group), "--field", "gf:2",
                "--degree-bound", "2"])
    assert code == 1
    assert "group order 6" in capsys.readouterr().err


def test_verify_candidate(docs, capsys):
    code, payload = run_json(capsys, [
        "verify", "--input", docs["double_edge"], "--sd",
        "--candidate", '["", "w", "alpha", "v_alpha"]'])
    assert code == 0
    assert payload["valid"] is True
    code, payload = run_json(capsys, [
        "verify", "--input", docs["double_edge"], "--sd",
        "--candidate", '["", "v", "w", "v_alpha"]'])
    assert code == 0
    assert payload["valid"] is False


def test_fine_vectors(docs, capsys):
    code, payload = run_json(capsys, [
        "fine-vectors", "--input", docs["double_edge"], "--sd"])
    assert code == 0
    assert payload["h"] == [{"labels": [], "count": 1},
                            {"labels": [1], "count": 1},
                            {"labels": [2], "count": 1},
                            {"labels": [1, 2], "count": 1}]


def test_cross_term(capsys):
    code, payload = run_json(capsys, ["cross-term", "--d", "2"])
    assert code == 0
    assert payload["coefficient"] == "3"
    assert payload["monomial"] == "x[0,1,2]"
    assert payload["odd"] is True and payload["strictly_dominated"] is True


def test_cross_term_builds_no_complex(capsys, monkeypatch):
    from facering.complexes import BooleanComplex

    def refuse(self, *args, **kwargs):
        raise AssertionError("cross-term built a BooleanComplex")

    monkeypatch.setattr(BooleanComplex, "__init__", refuse)
    code, payload = run_json(capsys, ["cross-term", "--d", "10"])
    assert code == 0
    assert payload["coefficient"] == "3" and payload["odd"] is True


@pytest.mark.parametrize("d", ["1", "101"])
def test_cross_term_d_out_of_range(capsys, d):
    code = run(["cross-term", "--d", d])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: d must be between 2 and 100")


def test_parser_is_reused_across_runs(docs, capsys):
    # one process, one parser: a result, an input error, another command;
    # each must match a run on a freshly built parser
    from facering.cli import build_parser

    jobs = [["straighten", "--input", docs["double_edge"], "--expr", "x[v]*x[w]"],
            ["straighten", "--input", docs["double_edge"], "--expr", "x[v]",
             "--field", "gf:4"],
            ["cross-term", "--d", "3"]]

    def results(fresh):
        out = []
        for argv in jobs:
            if fresh:
                build_parser.cache_clear()
            code = run(argv)
            out.append((code, capsys.readouterr().out))
        return out

    build_parser.cache_clear()
    shared = results(fresh=False)
    assert build_parser.cache_info().misses == 1
    assert [code for code, _ in shared] == [0, 2, 0]
    assert shared == results(fresh=True)


def test_order_flag(docs, capsys):
    order = '["", "a", "b", "c", "d", "a,c", "b,d"]'
    code, payload = run_json(capsys, [
        "check-cm", "--input", docs["disjoint_edges"],
        "--balancing", docs["disjoint_balancing"], "--order", order])
    assert code == 0
    assert payload["witness"] == "c"
    bad = '["", "a,c", "a", "b", "c", "d", "b,d"]'
    code = run(["check-cm", "--input", docs["disjoint_edges"],
                "--balancing", docs["disjoint_balancing"], "--order", bad])
    assert code == 2


def test_order_from_file_matches_inline(docs, tmp_path, capsys):
    order = '["", "a", "b", "c", "d", "a,c", "b,d"]'
    path = tmp_path / "order.json"
    path.write_text(order)
    outputs = []
    for value in (order, str(path)):
        assert run(["check-cm", "--input", docs["disjoint_edges"],
                    "--balancing", docs["disjoint_balancing"],
                    "--order", value]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["represent", "equivariant-iso"])
def test_not_cm_subdivision_is_a_result(command, tmp_path, capsys):
    # the subdivision of two disjoint edges is not Cohen-Macaulay, so there
    # is no basis to represent on or average over
    group = tmp_path / "group.json"
    group.write_text(json.dumps({"generators": [
        {"vertex_map": {"a": "b", "b": "a", "c": "d", "d": "c"}}]}))
    extra = {"represent": ["--expr", "x[a]"],
             "equivariant-iso": ["--group", str(group)]}[command]
    code, payload = run_json(capsys, [
        command, "--input", os.path.join(DATA, "disjoint_edges.json"), *extra])
    assert code == 0
    assert payload["verdict"] == "not-cm"
    assert payload["witness"] == "a,c"


@pytest.mark.parametrize("extra, err", [
    (["represent", "--expr", "x[nope]"], "error: unknown face 'nope'\n"),
    (["equivariant-iso", "--group", "/nonexistent.json"],
     "error: cannot read /nonexistent.json: [Errno 2] No such file or "
     "directory: '/nonexistent.json'\n"),
], ids=["represent", "equivariant-iso"])
def test_not_cm_subdivision_still_reads_every_input(extra, err, capsys):
    # a malformed expression or group is an input error before any verdict
    assert run([extra[0], "--input", os.path.join(DATA, "disjoint_edges.json"),
                *extra[1:]]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


NOT_PURE = {"kind": "simplicial", "facets": [["a", "b"], ["c"]]}


@pytest.mark.parametrize("argv", [["check-cm", "--sd"],
                                  ["represent", "--expr", "x[a]"],
                                  ["fine-vectors", "--sd"]])
def test_subdivision_of_a_complex_that_is_not_pure_has_no_balancing(
        argv, tmp_path, capsys):
    path = tmp_path / "not_pure.json"
    path.write_text(json.dumps(NOT_PURE))
    assert run([*argv, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the complex is not pure, so its "
                            "subdivision has no balancing\n")


def test_subdivision_of_a_complex_that_is_not_pure_straightens(tmp_path, capsys):
    path = tmp_path / "not_pure.json"
    path.write_text(json.dumps(NOT_PURE))
    assert run(["straighten", "--sd", "--input", str(path),
                "--expr", "x[a]*x[a_a,b]"]) == 0
    assert capsys.readouterr().out == "x[a]*x[a_a,b]\n"


# documents that cannot be decoded: not UTF-8, or nested past the decoder
UNDECODABLE = {
    "--input not UTF-8": (["check-cm", "--sd", "--input", "{bad}"], b"\xff\xfe{}"),
    "--balancing not UTF-8": (["check-cm", "--input", "{double_edge}",
                               "--balancing", "{bad}"], b'{"labels": "\xe9"}'),
    "--input nested 200000 deep": (["check-cm", "--sd", "--input", "{bad}"],
                                   b"[" * 200000 + b"]" * 200000),
    "--order nested 5000 deep inline": (
        ["check-cm", "--sd", "--input", "{double_edge}",
         "--order", "[" * 5000 + "]" * 5000], None),
}


@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_undecodable_documents_exit_2(name, docs, tmp_path, capsys):
    argv, content = UNDECODABLE[name]
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_bytes(content)
    code = run([arg.format(bad=bad, **docs) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_missing_balancing(docs, capsys):
    code = run(["check-cm", "--input", docs["double_edge"]])
    assert code == 2


# the flags each subcommand's handler reads; argparse rejects every other flag
FLAGS = {
    "check-cm": {"input", "field", "balancing", "order", "sd", "pretty"},
    "basis": {"input", "field", "balancing", "order", "sd", "pretty"},
    "straighten": {"input", "field", "sd", "expr", "json", "pretty"},
    "transfer": {"input", "field", "sd", "expr", "inverse", "json", "pretty"},
    "represent": {"input", "field", "sd", "order", "expr", "pretty"},
    "equivariant-iso": {"input", "field", "sd", "group", "order",
                        "degree-bound", "pretty"},
    "verify": {"input", "field", "balancing", "sd", "candidate", "pretty"},
    "fine-vectors": {"input", "balancing", "sd", "pretty"},
    "cross-term": {"d", "pretty"},
}


def test_flag_surface():
    from facering.cli import build_parser

    parser = build_parser()
    [commands] = [a.choices for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    surface = {name: {opt[2:] for a in sub._actions for opt in a.option_strings
                      if opt not in ("-h", "--help")}
               for name, sub in commands.items()}
    assert surface == FLAGS
    assert sum(len(flags) for flags in surface.values()) == 50


# flags that were accepted and never read, and flags missing or clashing
REJECTED = {
    "fine-vectors --field": ["fine-vectors", "--input", "{double_edge}", "--sd",
                             "--field", "gf:2"],
    "cross-term --sd": ["cross-term", "--d", "3", "--sd"],
    "straighten --group": ["straighten", "--input", "{double_edge}",
                           "--expr", "x[v]", "--group", "{swap_group}"],
    "represent --balancing": ["represent", "--input", "{double_edge}",
                              "--expr", "x[v]",
                              "--balancing", "{disjoint_balancing}"],
    "check-cm --degree-bound": ["check-cm", "--input", "{double_edge}", "--sd",
                                "--degree-bound", "3"],
    "check-cm --sd --balancing": ["check-cm", "--input", "{disjoint_edges}",
                                  "--sd", "--balancing", "{disjoint_balancing}"],
    "basis --json": ["basis", "--input", "{double_edge}", "--sd", "--json"],
    "verify --order": ["verify", "--input", "{double_edge}", "--sd",
                       "--candidate", "[]", "--order", "[]"],
    "equivariant-iso --balancing": [
        "equivariant-iso", "--input", "{double_edge}", "--group", "{swap_group}",
        "--balancing", "{disjoint_balancing}"],
    "equivariant-iso without --group": ["equivariant-iso",
                                        "--input", "{double_edge}"],
    "straighten --json --pretty": ["straighten", "--input", "{double_edge}",
                                   "--expr", "x[v]", "--json", "--pretty"],
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_flags_exit_2(name, docs, capsys):
    argv = [arg.format(**docs) for arg in REJECTED[name]]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    # the subcommand's own usage, which lists the flags it does take
    assert captured.err.startswith(f"usage: facering {argv[0]} ")


def test_help_returns_0(capsys):
    assert run(["check-cm", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--balancing" in out and "--group" not in out


def test_negative_degree_bound_exit_2(docs, capsys):
    code = run(["equivariant-iso", "--input", docs["double_edge"],
                "--group", docs["swap_group"], "--degree-bound", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: degree bound must be at least 0")


def test_negative_degree_bound_rejected_before_basis(docs, capsys,
                                                    monkeypatch):
    def no_basis(*args, **kwargs):
        raise AssertionError("the basis was computed")

    monkeypatch.setattr("facering.cli.compute_basis", no_basis)
    code = run(["equivariant-iso", "--input", docs["double_edge"],
                "--group", docs["swap_group"], "--degree-bound", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: degree bound must be at least 0, got -1\n"


@pytest.mark.parametrize("doc, message", [
    ({"kind": "simplicial", "facets": [["a", "b"], ["a,b"]]},
     "error: vertex name 'a,b' contains ','; face ids join vertex names "
     "with ','\n"),
    ({"kind": "poset", "faces": [{"id": "a"}, {"id": "z"}, {"id": "a_b"},
                                 {"id": "b", "covers": ["a", "z"]}]},
     "error: subdivision face id 'a_b' names two chains, ['a_b'] and "
     "['a', 'b']; rename the faces whose ids contain '_'\n"),
], ids=["comma-in-vertex", "underscore-collision"])
def test_face_id_collisions_exit_2(tmp_path, capsys, doc, message):
    path = tmp_path / "collision.json"
    path.write_text(json.dumps(doc))
    code = run(["check-cm", "--sd", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == message


def test_underscore_ids_without_collision_subdivide(tmp_path, capsys):
    path = tmp_path / "underscores.json"
    path.write_text(json.dumps({"kind": "poset", "faces": [
        {"id": "v_1"}, {"id": "w_2"},
        {"id": "e_a", "covers": ["v_1", "w_2"]},
        {"id": "e_b", "covers": ["v_1", "w_2"]}]}))
    code, payload = run_json(capsys, ["check-cm", "--sd", "--input", str(path)])
    assert code == 0 and payload["verdict"] == "cm"
    assert "v_1_e_a" in payload["facet_order"]


def test_represent_deep_power(docs, capsys):
    code, payload = run_json(capsys, [
        "represent", "--input", docs["double_edge"], "--expr", "x[alpha]^1100"])
    assert code == 0
    table = {row["member"]: row["polynomial"] for row in payload["coefficients"]}
    assert table == {"": "0", "v": "0", "alpha": "t2^1099", "v_alpha": "0"}


def test_output_byte_stability(docs, capsys):
    argv = ["basis", "--input", docs["double_edge"], "--sd"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second
    argv = ["represent", "--input", docs["double_edge"],
            "--expr", "x[w]^2*x[beta]"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second


def test_broken_pipe_exits_1_without_traceback():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader is left, so the child's first write fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "facering", "basis", "--sd", "--input",
             os.path.join(root, "data", "colored_disk.json")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr


def test_pretty_and_json_flags(docs, capsys):
    code = run(["straighten", "--input", docs["double_edge"],
                "--expr", "x[v]*x[w]", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["terms"] == [
        {"coeff": "1", "monomial": [["alpha", 1]]},
        {"coeff": "1", "monomial": [["beta", 1]]}]
    code = run(["basis", "--input", docs["double_edge"], "--sd", "--pretty"])
    assert code == 0
    assert capsys.readouterr().out.startswith("{\n")


MALFORMED = {
    "face-without-id": (
        {"kind": "poset", "faces": [{"id": "v"}, {"covers": []}]},
        None, None),
    "non-integer-label": (DOUBLE_EDGE, {"labels": {"v": "one", "w": 2}}, None),
    "generator-not-an-object": (DOUBLE_EDGE, None, {"generators": [7]}),
    "facet-not-a-list": (
        {"kind": "simplicial", "facets": [["0", "1"], True]}, None, None),
    "covers-not-a-list": (
        {"kind": "poset", "faces": [{"id": "v", "covers": 5}]}, None, None),
    "facet-order-not-a-list": (dict(DOUBLE_EDGE, facet_order=3), None, None),
    "facet-order-entry-a-list": (
        dict(DOUBLE_EDGE, facet_order=[["alpha"], "beta"]), None, None),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_documents_exit_2(name, tmp_path, capsys):
    complex_doc, balancing, group = MALFORMED[name]
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(complex_doc))
    argv = ["check-cm", "--input", str(path), "--sd"]
    if balancing is not None:
        bal = tmp_path / "balancing.json"
        bal.write_text(json.dumps(balancing))
        argv = ["check-cm", "--input", str(path), "--balancing", str(bal)]
    if group is not None:
        grp = tmp_path / "group.json"
        grp.write_text(json.dumps(group))
        argv = ["equivariant-iso", "--input", str(path), "--group", str(grp),
                "--degree-bound", "2"]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


# JSON values of every kind, small; the alphabet includes the separators that
# subdivision and simplicial face ids are joined with
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text("ab_,", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("abid", max_size=2), inner, max_size=3),
    max_leaves=6)
FACE_ID = st.sampled_from(["a", "b", "c", "d"]) | JSON
FACE = JSON | st.fixed_dictionaries(
    {"id": FACE_ID}, optional={"covers": st.lists(FACE_ID, max_size=3) | JSON})
COMPLEX_DOCUMENTS = (
    st.fixed_dictionaries(
        {"kind": st.just("poset"), "faces": st.lists(FACE, max_size=7) | JSON},
        optional={"facet_order": st.lists(FACE_ID, max_size=3) | JSON})
    | st.fixed_dictionaries(
        {"kind": st.just("simplicial"),
         "facets": st.lists(st.lists(FACE_ID, max_size=4) | JSON, max_size=3)
         | JSON})
    | st.fixed_dictionaries({"kind": JSON}) | JSON)


@given(COMPLEX_DOCUMENTS)
def test_malformed_documents_fuzz(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "complex.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["check-cm", "--sd", "--input", path])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# -- exit-code fuzz over expressions and the other document kinds ----------------

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "data")


def run_quiet(argv) -> int:
    """Run the CLI with captured streams; the contract is an exit code in
    {0, 1, 2} and no traceback, whatever the input."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    return code


def run_with_document(argv, flag, doc) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "document.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return run_quiet(argv + [flag, path])


EXPRESSIONS = (sums(False) | sums(True)
               | st.text("xyz[]^*+-/0123456789 vwab", max_size=16))


@given(st.sampled_from(["straighten", "represent"]),
       st.sampled_from(["rational", "gf:2"]), EXPRESSIONS)
def test_expressions_fuzz(command, field, expr):
    run_quiet([command, "--input", os.path.join(DATA, "double_edge.json"),
               "--field", field, f"--expr={expr}"])


DOUBLE_EDGE_IDS = st.sampled_from(["v", "w", "alpha", "beta", "", "q"])
LABEL = st.integers(-2, 4) | st.sampled_from(["1", "2", "x", ""]) | JSON
SMALL_LABEL = st.integers(0, 3)
BALANCINGS = (
    st.fixed_dictionaries({"labels": st.fixed_dictionaries(
        {"v": SMALL_LABEL, "w": SMALL_LABEL},
        optional={"alpha": SMALL_LABEL, "q": SMALL_LABEL})})
    | st.fixed_dictionaries(
        {"labels": st.dictionaries(DOUBLE_EDGE_IDS | st.text("ab", max_size=2),
                                   LABEL, max_size=5) | JSON})
    | JSON)


@given(BALANCINGS)
def test_balancing_documents_fuzz(doc):
    run_with_document(["check-cm", "--input",
                       os.path.join(DATA, "double_edge.json")],
                      "--balancing", doc)


GROUP_IDS = st.sampled_from(["v", "w", "alpha", "beta", "0", "1", "2", "0,1",
                             "", "q"])
FACE_MAP = st.dictionaries(GROUP_IDS, GROUP_IDS | JSON, max_size=3) | JSON
GENERATOR = (st.sampled_from([{"map": {"alpha": "beta", "beta": "alpha"}},
                              {"map": {"v": "w", "w": "v"}},
                              {"vertex_map": {"0": "1", "1": "0"}},
                              {"vertex_map": {"0": "1", "1": "2", "2": "0"}}])
             | st.fixed_dictionaries({"map": FACE_MAP})
             | st.fixed_dictionaries({"vertex_map": FACE_MAP}) | JSON)
GROUPS = (st.fixed_dictionaries(
    {"generators": st.lists(GENERATOR, max_size=3) | JSON}) | JSON)


@given(st.sampled_from(["double_edge.json", "triangle.json"]),
       st.sampled_from(["rational", "gf:2"]), GROUPS)
def test_group_documents_fuzz(complex_file, field, doc):
    run_with_document(["equivariant-iso", "--sd", "--degree-bound", "2",
                       "--field", field,
                       "--input", os.path.join(DATA, complex_file)],
                      "--group", doc)


SD_IDS = ["", "v", "w", "alpha", "beta", "v_alpha", "w_alpha", "v_beta",
          "w_beta"]
ORDERS = (st.permutations(SD_IDS)
          | st.lists(st.sampled_from(SD_IDS + ["q", "v_w"]) | JSON, max_size=10)
          | JSON)


@given(ORDERS)
def test_order_lists_fuzz(order):
    run_quiet(["check-cm", "--sd", "--input",
               os.path.join(DATA, "double_edge.json"),
               f"--order={json.dumps(order)}"])
