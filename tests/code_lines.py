"""Count the code lines of the package: the lines of `src/artifact/*.py`
that hold a token, blank lines, comments and docstrings left out.

A docstring is the string constant that opens a module, class or function
body (ast.get_docstring's rule); every line its token spans is dropped. A
line is counted once whatever it holds, and every line of a multi-line
token other than a docstring (a string, a bracketed expression's
continuation) is code.

    python tests/code_lines.py            # the package's total
    python tests/code_lines.py FILE...    # the total of the given files
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "artifact"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    files = [Path(a) for a in argv] or sorted(PACKAGE.glob("*.py"))
    print(sum(count_code_lines(f.read_text()) for f in files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
