"""Smoke tests of the two tools the byte-identity and line-count rules use."""

import runpy
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_artifact_digest_makes_every_run():
    done = subprocess.run([sys.executable, str(TOOLS / "artifact_digest.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    *runs, total = done.stdout.splitlines()
    assert len(runs) == 81
    assert total.endswith("  total of 81 runs") and len(total.split()[0]) == 64
    assert not [line for line in runs if line.split()[1] == "raised"]


TOY_MODULE = '''"""Module docstring,
over two lines."""

# a comment

import math  # a trailing comment


def f(x):
    """Function docstring."""

    s = """a string that
is not a docstring"""
    return math.sqrt(x) + len(s)


class C:
    """Class docstring."""
    y = 1
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    code_lines = runpy.run_path(str(TOOLS / "code_lines.py"))["code_lines"]
    # import, def, the two lines of s, return, class, y = 1
    assert code_lines(TOY_MODULE) == 7
