"""Count the code lines of the `stad` package, per file and in total.

A code line holds at least one token that is not a comment or a line
break. Module, class and function docstrings are not code, so the lines
they span do not count; blank lines never do.

    python3 tools/sloc.py [PACKAGE_DIR]
    python3 tools/sloc.py --against REF [PACKAGE_DIR]

PACKAGE_DIR defaults to src/stad next to this file's directory. Prints one
`name lines` row per module, sorted by name, then `total lines`. With
--against, PACKAGE_DIR must lie in a git work tree, and each row is
`name before after delta`: before counts the modules of that directory as
committed at REF (read with `git show`), after the files on disk. A module
present on one side only counts 0 on the other.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout


def counts_at(root: Path, ref: str) -> dict[str, int]:
    """Code lines per module of the directory root as committed at ref."""
    names = _git(root, "ls-tree", "--name-only", ref, ".").split()
    return {Path(name).stem: code_lines(_git(root, "show", f"{ref}:./{name}"))
            for name in sorted(names) if name.endswith(".py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog=Path(argv[0]).name,
                                     description="Count the code lines of a package.")
    parser.add_argument("package_dir", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src" / "stad")
    parser.add_argument("--against", metavar="REF",
                        help="also count the package as committed at this git revision")
    args = parser.parse_args(argv[1:])
    root = args.package_dir
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(root.glob("*.py"))}
    if args.against is None:
        for name, count in counts.items():
            print(f"{name} {count}")
        print(f"total {sum(counts.values())}")
        return 0
    try:
        before = counts_at(root, args.against)
    except subprocess.CalledProcessError as exc:
        print(f"sloc: git {exc.cmd[1]} failed: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    rows = [(name, before.get(name, 0), counts.get(name, 0))
            for name in sorted(before.keys() | counts.keys())]
    rows.append(("total", sum(before.values()), sum(counts.values())))
    for name, old, new in rows:
        print(f"{name} {old} {new} {new - old:+d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
