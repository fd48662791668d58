"""``tools/code_lines.py`` on a hand-written source file."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment leaves a code line


# a comment line
class A:
    """Class docstring."""

    text = """a string that is
no docstring"""

    def f(self):
        """Function
        docstring."""
        return (os.sep,
                1)


async def g():
    "Coroutine docstring."
    return 2
'''


def test_counts_code_lines_and_skips_docstrings_comments_and_blanks(
        tmp_path, capsys):
    # import, class, the two lines of text, def, the two lines of return,
    # async def and its return
    assert code_lines.code_lines(SOURCE) == 9
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert code_lines.main([str(path), str(path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == ["9", "9", "18"]
    assert printed[-1].split()[1] == "total"
