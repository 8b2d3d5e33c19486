#!/usr/bin/env python3
"""Count the code lines of a Python package.

    python3 scripts/code_lines.py [PACKAGE_DIR]

A code line holds a token other than a comment, a newline or an indent,
and is not part of a module, class or function docstring; a statement
continued over several lines counts each of them.  Prints the count of
each module of PACKAGE_DIR (default: src/cellmat of this repo) and then
their total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cellmat"
# the tokens that hold no code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef,
              ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, False):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of the Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
