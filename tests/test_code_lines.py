"""The counting rule of scripts/code_lines.py."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

# 8 code lines: the import, the constant, the def line and the two of its
# continued return, the class line, and its method's def line and pass.
# The docstrings, the comment lines and the blank lines are not code
SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment line
LIMIT = 3


def f(x):
    """A function docstring."""
    return (x +
            LIMIT)


class C:
    """A class docstring,
    on two lines."""

    def g(self):
        pass
'''


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_counts_code_lines_only(script):
    assert script.code_lines(SOURCE) == 8


def test_a_string_that_is_no_docstring_is_code(script):
    # a string after the first statement documents nothing: both its
    # lines count, as does a backslash-continued line
    source = 'x = 1\n"""not a\ndocstring"""\ny = x + \\\n    1\n'
    assert script.code_lines(source) == 5


def test_prints_each_module_and_the_total(script, tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("# only a comment\n\nz = 0\n")
    assert script.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     8  a.py", "     1  b.py", "     9  total", ""]
