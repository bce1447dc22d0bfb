"""Count the code lines of the package: non-blank lines outside comments
and docstrings, per module of ``src/hamorbit`` and in total.

    python3 tools/code_lines.py [package directory]

A line counts when it holds a token other than a comment, a line break,
an indent or a docstring.  A docstring is the string that opens a module,
a class or a function body; a statement that spans several lines counts
each of them.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hamorbit"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<20} {count:>6,}")
    print(f"{'total':<20} {total:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
