#!/usr/bin/env python3
"""Physical lines and code lines of the package source.

A code line holds at least one code token and lies outside every
docstring: blank lines, comment-only lines and the lines of module, class
and function docstrings do not count.  Docstrings are found with ``ast``;
code tokens are read with ``tokenize`` (a token spanning several lines,
such as a multi-line string that is not a docstring, counts on each of
them).  Run from the root of a checkout:

    python3 scripts/code_lines.py
"""
import argparse
import ast
import io
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the docstrings of ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one Python source text."""
    docs = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docs)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parents[1] / "src" / "schubert"),
                    help="package directory (default: src/schubert of this checkout)")
    args = ap.parse_args()
    physical = code = 0
    for path in sorted(Path(args.root).rglob("*.py")):
        p, c = count(path.read_text(encoding="utf-8"))
        physical, code = physical + p, code + c
    print(f"physical lines\t{physical}")
    print(f"code lines\t{code}")


if __name__ == "__main__":
    main()
