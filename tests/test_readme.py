"""The README's library quick start and command lines print what their
comments say.

The ```python block is run in a fresh interpreter with ``src`` on the path.
Each ``print`` in it is followed by a ``# ...`` comment, on its own line or
on the next one; the comment's text, up to a run of two spaces (where a
remark may follow), is the line that print must write.

In the ```sh blocks, a ``facering`` command (continued over lines ending in
a backslash) followed by ``#   `` lines is run through ``python -m
facering``; the joined comment lines are its stdout, compared as JSON when
they parse as JSON and as text otherwise.
"""

import ast
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_blocks(language: str) -> list[str]:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return re.findall(rf"^```{language}\n(.*?)^```", fh.read(), re.M | re.S)


def quick_start() -> str:
    blocks = readme_blocks("python")
    assert len(blocks) == 1, "the README should hold one python block"
    return blocks[0]


def commented_commands() -> list[tuple[list[str], str]]:
    """(arguments after ``facering``, joined expected output) for each
    command followed by ``#   `` lines."""
    cases = []
    for block in readme_blocks("sh"):
        lines = block.splitlines()
        i = 0
        while i < len(lines):
            command = lines[i]
            i += 1
            if not command.startswith("facering "):
                continue
            while command.endswith("\\"):
                command = command[:-1] + lines[i]
                i += 1
            expected = []
            while i < len(lines) and lines[i].startswith("#   "):
                expected.append(lines[i][4:].strip())
                i += 1
            if expected:
                cases.append((shlex.split(command)[1:], " ".join(expected)))
    return cases


def expected_lines(code: str) -> list[str]:
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(code).readline)
                if tok.type == tokenize.COMMENT}
    expected = []
    for node in ast.parse(code).body:
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "print"):
            line = node.end_lineno
            text = comments.get(line, comments.get(line + 1))
            assert text is not None, f"print on line {line} has no comment"
            expected.append(re.split(r"\s{2,}", text)[0])
    return expected


def test_readme_quick_start_prints_its_comments():
    code = quick_start()
    expected = expected_lines(code)
    assert expected
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == expected


def test_readme_commands_print_their_comments():
    cases = commented_commands()
    assert {argv[0] for argv, _ in cases} >= {"straighten", "check-cm",
                                              "cross-term"}
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for argv, expected in cases:
        run = subprocess.run([sys.executable, "-m", "facering", *argv],
                             cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=120)
        assert run.returncode == 0, (argv, run.stderr)
        try:
            want = json.loads(expected)
        except ValueError:
            assert run.stdout.rstrip("\n") == expected, argv
        else:
            assert json.loads(run.stdout) == want, argv
