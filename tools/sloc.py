"""Count the code lines of the `stad` package, per file and in total.

A code line holds at least one token that is not a comment or a line
break. Module, class and function docstrings are not code, so the lines
they span do not count; blank lines never do.

    python3 tools/sloc.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/stad next to this file's directory. Prints one
`name lines` row per module, sorted by name, then `total lines`.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstrings(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of the module, class and function docstrings."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            doc = body[0].value
            spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docs = _docstrings(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or any(a <= tok.start and tok.end <= b for a, b in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "stad"
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(root.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name} {count}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
