"""Count the code lines of each Python module in a directory.

    python tests/code_lines.py src/scorelang

A line counts when it holds a token other than a comment or a newline,
and is not part of a module, class or function docstring.  Prints one
line per module, ``<lines> <file>``, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    """The number of code lines in the module at `path`."""
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/code_lines.py DIR", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(Path(argv[0]).glob("*.py")):
        lines = code_lines(path)
        total += lines
        print(f"{lines:6} {path.name}")
    print(f"{total:6} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
