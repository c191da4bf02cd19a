import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts

# a comment alone does not


def f(x):
    """Function docstring."""
    table = """a multi-line string
that is not a docstring
counts on all three lines"""
    return (x +
            1)


class C:
    """Class docstring,

    with a blank line inside."""

    y = 2
'''
# counted: import, def, table (3 lines), return (2 lines), class, y = 2
SAMPLE_LINES = 9


def test_counts_code_lines_outside_docstrings(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "sample.py").write_text(SAMPLE, encoding="utf-8")
    (pkg / "empty.py").write_text("# only a comment\n\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(pkg)], capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines() == [
        f"     0  {pkg / 'empty.py'}",
        f"     {SAMPLE_LINES}  {pkg / 'sample.py'}",
        f"     {SAMPLE_LINES}  total",
    ]
