#!/usr/bin/env python3
"""Count the lines of the package source, src/heiscert/*.py, three ways.

- total: physical lines;
- docstring: lines spanned by the docstring of each module, class and
  function (ast);
- code: lines holding a token other than a comment, a line break, an
  indent or a dedent (tokenize), less the docstring lines.

Prints "total N", "code N" and "docstring N", one per line; with paths
given, counts those files instead.  Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heiscert"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef,
              ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, DOCUMENTED)
                and ast.get_docstring(node) is not None):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int, int]:
    """(total, code, docstring) lines of one source file."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docs), len(docs)


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted(PACKAGE.glob("*.py"))
    totals = [sum(column) for column in zip(*map(count, paths))]
    for name, value in zip(("total", "code", "docstring"), totals):
        print(f"{name} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
