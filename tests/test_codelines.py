import importlib.util
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "codelines.py"
_spec = importlib.util.spec_from_file_location("codelines", _PATH)
codelines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(codelines)

# 1: docstring, 6: comment, 7: blank; class and function docstrings, one of
# two lines; a string that is not a docstring counts, over both its lines
MODULE = textwrap.dedent('''\
    """Module docstring."""

    import os  # a trailing comment does not make a line a comment line


    # a comment line
    class A:
        """Class
        docstring."""

        def f(self):
            """Function docstring."""
            x = """not a
            docstring"""
            return (x,
                    os.sep)
    ''')


def test_counts_code_lines_only():
    # import, class, def, the two lines of x and the two of the return
    assert codelines.count_code_lines(MODULE) == 7


def test_a_second_expression_is_not_a_docstring():
    assert codelines.count_code_lines('"""doc"""\n"""not a docstring"""\n') == 1


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(MODULE)
    (tmp_path / "a.py").write_text("x = 1\n\n# c\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert codelines.main(["--src", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1  a.py", "     7  b.py", "     8  total"]
