"""``tools/src_lines.py`` counts lines by hand-counted rules.

A synthetic package holds a module, class and function docstrings,
comment-only lines, a string that is not a docstring, a C block comment
over several lines and a C string holding ``/*``; each file's code lines
are counted by hand below.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

# code lines: 4, 9, 12, 17, 20, 22, 23, 24, 25
MODULE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment

# a comment-only line


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        three lines."""
        # a comment
        return os.sep


def f(x):
    \'\'\'Function docstring.\'\'\'
    text = """not a docstring,
so both of its lines count"""
    return (x,
            text)
'''

# code lines: 4, 7, 8, 9, 10, 11, 12, 14, 15 (were "/*" on line 7 taken for
# a comment, it would swallow lines 8-12)
KERNEL = """/* A block comment
   over three lines,
   ending here. */
#include <stdint.h>

// a line comment
static const char *opener = "/*";
static const char quote = '"';
int64_t twice(int64_t x)
{
    return 2 * x;  /* doubled */
}
/* a comment */ /* and another */
int64_t halve(int64_t x) /* a comment that
   runs on */ { return x / 2; }
"""


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_all_lines_and_code_lines_by_hand(tmp_path):
    (tmp_path / "mod.py").write_text(MODULE)
    (tmp_path / "kernel.c").write_text(KERNEL)
    (tmp_path / "notes.txt").write_text("not counted\n")
    rows, totals = _tool().counts(tmp_path)
    assert rows == [("kernel.c", 15, 9), ("mod.py", 25, 9)]
    assert totals == [("*.py", 25, 9), ("*.c", 15, 9), ("total", 40, 18)]
