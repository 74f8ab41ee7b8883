"""The code-line count (``tests/codelines.py``) skips docstrings, comments
and blank lines, and counts every line a statement spans."""

import codelines

SOURCE = '''"""Module docstring,
on two lines."""

# A comment.
import math  # a trailing comment

#: An annotated constant.
LIMIT = (
    1,
    2,
)


class Box:
    """A docstring."""

    "A bare string statement."

    def area(self):
        """Docstring of a method,
        on two lines."""
        text = """a string
        that is code"""
        return math.pi, text
'''


def test_counts_code_lines_only(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n\ny = 'doc' + 'string'\n", encoding="utf-8")
    # import, LIMIT's 4 lines, class, def, the 2-line string and return.
    assert codelines.code_lines(tmp_path / "a.py") == 10
    assert codelines.code_lines(tmp_path / "b.py") == 2
    assert codelines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    10  a.py",
        "     2  b.py",
        "    12  total",
    ]
