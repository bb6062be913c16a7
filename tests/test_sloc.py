"""The code-line counter of tools/sloc.py, pinned on an inline sample."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "sloc.py"
_SPEC = importlib.util.spec_from_file_location("sloc", _PATH)
sloc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sloc)

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment keeps the line


class A:
    """Class docstring."""

    x = 1

    def f(self):
        """Function docstring,

        over three lines."""
        text = """a string that is
        not a docstring"""
        """a bare string after the first statement"""
        return (text +
                os.sep)
'''


def test_counts_code_lines_only():
    # import, class, x, def, the two lines of text, the bare string and the
    # two lines of the return
    assert sloc.code_lines(SAMPLE) == 9


def test_one_line_def_with_docstring_counts_once():
    assert sloc.code_lines('def f(): """doc"""\n') == 1


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "a.py").write_text('"""doc"""\n')
    assert sloc.main(["sloc", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 0\nb 2\ntotal 2\n"
