"""Count the code lines of each module in ``src/mlpsched/``.

Usage: python tests/code_lines.py [PACKAGE_DIR]

A code line is a physical line that holds part of a token other than a
comment, a line break, an indent or a dedent, and that no docstring
covers.  A docstring is a string statement that opens a module, class or
function body; its lines do not count.  A token that spans lines, such as
a triple-quoted string that is not a docstring, counts on every line it
spans.  Blank lines, comment lines and the lines of a docstring therefore
count for nothing, and a line with code and a trailing comment counts
once.

Prints one line per module, ``<count> <file>``, in file-name order, then
``<total> total``.  Needs only the standard library.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The code lines of one Python file, as the module docstring defines them."""
    source = path.read_bytes()
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source, str(path))))


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "mlpsched"
    package = Path(argv[1]) if len(argv) > 1 else default
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
