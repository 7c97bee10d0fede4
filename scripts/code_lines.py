"""Code lines per module of ``src/zeroflow``, and their change against a
parent revision.

    python3 scripts/code_lines.py [--parent HEAD~1]

Run from the root of a checkout.  A code line is one that holds a token
other than a comment: blank lines, comment-only lines and the lines of a
module, class or function docstring do not count, while every line of any
other string does (see ``code_lines``).  The script prints the count of
each module and the total.  With ``--parent`` it also exports that
revision with ``git archive`` into a temporary directory, which is removed
afterwards, and prints each module's count on both sides and the
difference.
"""

from __future__ import annotations

import argparse
import ast
import glob
import io
import os
import sys
import tempfile
import tokenize

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pair  # noqa: E402

ROOT = bench_pair.ROOT
PACKAGE = os.path.join("src", "zeroflow")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}  # fmt: skip


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):  # fmt: skip
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that a token other than a comment
    touches, a multi-line token touching each of its lines, less the lines
    of docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_tree(tree: str) -> dict[str, int]:
    """Code lines of each module of the package under ``tree``, by file name."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(tree, PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            counts[os.path.basename(path)] = code_lines(fh.read())
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="git revision to compare against")
    args = ap.parse_args(argv)
    change = count_tree(ROOT)
    if not args.parent:
        for name, count in change.items():
            print(f"{name:18} {count:6}")
        print(f"{'total':18} {sum(change.values()):6}")
        return 0

    with tempfile.TemporaryDirectory(prefix="code_lines_") as tmp:
        bench_pair._export(args.parent, tmp)
        parent = count_tree(tmp)
    print(f"{'module':18} {'parent':>6} {'change':>6} {'diff':>6}")
    rows = [(name, parent.get(name, 0), change.get(name, 0)) for name in sorted({*parent, *change})]
    rows.append(("total", sum(parent.values()), sum(change.values())))
    for name, before, after in rows:
        print(f"{name:18} {before:6} {after:6} {after - before:+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
