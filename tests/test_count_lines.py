"""scripts/count_lines.py: total, code and docstring lines."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "count_lines.py"

# 20 lines: docstrings on lines 1-2, 9 and 12-14; comments and blank
# lines elsewhere; code on lines 5, 8, 11, 16 and 19-20, the last two one
# string that is no docstring.
SOURCE = '''"""Module docstring,
over two lines."""

# A comment.
import os


class Thing:
    """Class docstring."""

    def method(self):
        """Function docstring
        over two lines.
        """
        # Another comment.
        return os.sep  # A trailing comment.


text = """not a
docstring"""
'''


def count_lines(*paths: Path) -> str:
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, paths)],
                          check=True, capture_output=True, text=True).stdout


def test_count_lines_of_one_file(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert count_lines(path) == "total 20\ncode 6\ndocstring 6\n"


def test_count_lines_sums_the_files(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert count_lines(path, path) == "total 40\ncode 12\ndocstring 12\n"
