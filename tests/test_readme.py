"""The README's library quick start runs, and prints what its comments say.

The ```python block is run in a fresh interpreter with ``src`` on the path.
Each ``print`` in it is followed by a ``# ...`` comment, on its own line or
on the next one; the comment's text, up to a run of two spaces (where a
remark may follow), is the line that print must write.
"""

import ast
import io
import os
import re
import subprocess
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quick_start() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert len(blocks) == 1, "the README should hold one python block"
    return blocks[0]


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
