"""Code lines of each ``src/sturmosc`` module, and their total.

Usage, from the root of a source checkout:

    python3 tools/code_lines.py [--root CHECKOUT]

A code line is a line that holds a token other than a comment, a docstring
or whitespace, so adding or deleting documentation moves no count.  A
docstring is the string statement that opens a module, class or function
body; a token that spans several lines (a multi-line string) counts on
each of them.  It prints one line per module (count, path), then the
total.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree):
    """(line, column) of the first token of every docstring in ``tree``."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source):
    """Number of code lines of the Python ``source`` text."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING
                                   and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="source checkout to count (default: this one)")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted((args.root / "src" / "sturmosc").glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.relative_to(args.root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
