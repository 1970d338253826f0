"""The theorem battery and the library checks must not depend on ``assert``,
which ``python -O`` strips."""
import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from pathideal.corpus import line
from pathideal.trees import format_tree

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_assert_statements_in_library():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "pathideal").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_verify_catches_wrong_closed_form_under_python_O():
    script = textwrap.dedent(
        """
        import sys

        import pathideal.verify as verify
        from pathideal import cli

        if __debug__:
            sys.exit("this script must run under python -O")
        closed_form = verify.pd_line_closed_form
        verify.pd_line_closed_form = lambda n, t: closed_form(n, t) + (1 if n == 7 else 0)
        sys.exit(cli.main(["verify", "--samples", "3", "--max-n", "7", "--format", "json"]))
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 1, done.stderr
    failed = {r["check"] for r in json.loads(done.stdout) if not r["passed"]}
    assert "closed_form_vs_oracle" in failed


def test_pd_verify_catches_wrong_closed_form_under_python_O(tmp_path):
    tree_file = tmp_path / "line8.tree"
    tree_file.write_text(format_tree(line(8)))
    script = textwrap.dedent(
        f"""
        import sys

        import pathideal.pd as pd
        from pathideal import cli

        if __debug__:
            sys.exit("this script must run under python -O")
        closed_form = pd.pd_line_closed_form
        pd.pd_line_closed_form = lambda n, t: closed_form(n, t) + 1
        sys.exit(cli.main(["pd", {str(tree_file)!r}, "-t", "3", "--verify"]))
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 1, done.stderr
    assert "methods disagree" in done.stderr
