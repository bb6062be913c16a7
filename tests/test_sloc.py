"""The code-line counter of tools/sloc.py, pinned on inline samples and a
throwaway git repository."""

import importlib.util
import subprocess
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


def test_against_a_ref_prints_before_after_and_delta(tmp_path, capsys):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n")
    (pkg / "gone.py").write_text("y = 2\nz = 3\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "before")
    (pkg / "a.py").write_text("x = 1\ny = 2\nz = 3\n")
    (pkg / "gone.py").unlink()
    (pkg / "new.py").write_text('"""doc"""\nw = 4\n')
    assert sloc.main(["sloc", "--against", "HEAD", str(pkg)]) == 0
    assert capsys.readouterr().out == "a 1 3 +2\ngone 2 0 -2\nnew 0 1 +1\ntotal 3 4 +1\n"
    assert sloc.main(["sloc", "--against", "no-such-ref", str(pkg)]) == 1
    assert "no-such-ref" in capsys.readouterr().err
