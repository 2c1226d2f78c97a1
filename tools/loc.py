"""Lines of code and source bytes per Python module, and their totals.

    python tools/loc.py src/eonspectra/*.py

prints, for each file named, the number of lines that hold code, without
docstrings, comments and blank lines, and the size of the file in bytes,
then the totals over all files.  A statement that spans several lines
counts every line it spans.
"""

from __future__ import annotations

import ast
import sys
import tokenize

PROSE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: bytes) -> int:
    """The number of lines of ``source`` that hold code."""
    # a statement that is a bare string is a docstring
    docs = {
        line
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for line in range(node.lineno, node.end_lineno + 1)
    }
    tokens = tokenize.tokenize(iter(source.splitlines(keepends=True)).__next__)
    code = {
        line
        for t in tokens
        if t.type not in PROSE
        for line in range(t.start[0], t.end[0] + 1)
    } - docs
    return len(code)


def main(argv=None) -> int:
    print(f"{'code':>8} {'bytes':>8}")
    total = size = 0
    for name in sys.argv[1:] if argv is None else argv:
        with open(name, "rb") as f:
            source = f.read()
        count = code_lines(source)
        total += count
        size += len(source)
        print(f"{count:8d} {len(source):8d} {name}")
    print(f"{total:8d} {size:8d} in total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
