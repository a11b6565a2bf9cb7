"""Smoke test: every script under demos/ runs to completion, and the
README's library quick start runs as written."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

from permod.exactnum import ExtendedRational, ext

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start():
    """The README's quick-start block runs, and its last two lines return
    what their comments say: 1, an ExtendedRational, both times."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    body = ast.parse(block).body
    scope = {}
    exec(compile(ast.Module(body[:-2], []), "README.md", "exec"), scope)
    got = [eval(compile(ast.Expression(line.value), "README.md", "eval"), scope)
           for line in body[-2:]]
    assert [type(d) for d in got] == [ExtendedRational] * 2 and got == [ext(1)] * 2
    comments = [line.split("#", 1)[1].strip() for line in block.splitlines()[-2:]]
    assert comments[0] == "1, an ExtendedRational" and comments[1].startswith("1, ")
