"""tools/code_lines.py on a small sample package."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SAMPLE = '''"""A module docstring
over two lines."""

import math  # a comment after code counts


# a comment line does not
class Box:
    """A class docstring."""

    size = 2

    def area(self):
        """A function docstring."""
        text = """a string that is not a docstring
        counts on each of its lines"""
        return math.pi * self.size ** 2, text


def f(
    x,
):
    return [
        x,
    ]
'''


def test_counts_code_lines_only(tmp_path):
    # counted: import, class, size, def area, the two lines of the string,
    # return, and the six lines of f
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "skipped.py").write_text("x = 1\n")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [f"0 {tmp_path / 'empty.py'}", f"13 {tmp_path / 'sample.py'}",
                                "13 total"]
