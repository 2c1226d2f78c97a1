import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import loc  # noqa: E402

MODULE = '''"""A module docstring
over two lines."""

# a comment on a line of its own
import math  # a comment after code


def area(r):
    """One line of docstring."""

    return math.pi * (
        r
        * r
    )


class Shape:
    """A class docstring
    over
    three lines."""

    sides = [
        3,
        4,
    ]
'''


def test_counts_code_without_docstrings_comments_and_blank_lines(tmp_path, capsys):
    # import, def and the four lines of the return; class and the four
    # lines of the list; the bytes count the whole file
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    assert loc.code_lines(MODULE.encode()) == 11
    assert loc.main([str(path), str(path)]) == 0
    size = len(MODULE.encode())
    assert capsys.readouterr().out == (
        f"    code    bytes\n"
        f"      11 {size:8d} {path}\n"
        f"      11 {size:8d} {path}\n"
        f"      22 {2 * size:8d} in total\n"
    )
