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


def test_missing_balancing(docs, capsys):
    code = run(["check-cm", "--input", docs["double_edge"]])
    assert code == 2


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


COEFFICIENT = (st.sampled_from(["1/2", "-3/4", "4/2", "0/5", "0", "-1"])
               | st.integers(-10**30, 10**30).map(str))
FACE = st.sampled_from(["v", "w", "alpha", "beta", ""])
# malformed pieces: other letters and faces, bad fractions and exponents
BAD_COEFFICIENT = st.sampled_from(["1/0", "2/-3", "1/", "/2"])
BAD_FACE = st.sampled_from(["v_alpha", "q", "0", " v ", "v]", "v[", "["])
BAD_LETTER = st.sampled_from("yzwX")
BAD_POWER = st.sampled_from(["^", "^-1", "^x", "^^2"])


@st.composite
def terms(draw, malformed=False):
    """One term whose exponents sum to at most 40 (a run-time cap only)."""
    def piece(good, bad):
        return draw(good | bad if malformed else good)

    budget = draw(st.integers(0, 40))
    factors = []
    for _ in range(draw(st.integers(0, 3))):
        e = draw(st.integers(0, budget))
        budget -= e
        power = piece(st.sampled_from(["", f"^{e}", f"^{e}"]), BAD_POWER)
        factors.append(f"{piece(st.just('x'), BAD_LETTER)}"
                       f"[{piece(FACE, BAD_FACE)}]{power}")
    if not factors or draw(st.booleans()):
        factors.insert(0, piece(COEFFICIENT, BAD_COEFFICIENT))
    return "*".join(factors)


def sums(malformed):
    ops = st.sampled_from([" + ", "-", " - ", "+-", "*", " "] if malformed
                          else [" + ", " - ", "-"])
    return st.builds(lambda first, rest: first + "".join(o + t for o, t in rest),
                     terms(malformed),
                     st.lists(st.tuples(ops, terms(malformed)), max_size=2))


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
