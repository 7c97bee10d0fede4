"""The counting rule of scripts/code_lines.py, on a made-up module."""

import importlib.util
import pathlib
import textwrap

_SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
_SPEC = importlib.util.spec_from_file_location("code_lines", _SCRIPTS / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

MODULE = textwrap.dedent(
    '''\
    """Module docstring,
    over two lines."""

    import math  # a trailing comment keeps the line

    # a comment-only line


    class Box:
        """Class docstring."""

        size = 2


    def area(r):
        """Function docstring,

        over three lines."""
        # a comment inside the body
        text = """a string that is not a docstring,
    # so this line is code,

    and so is the blank line above."""
        return math.pi * r * r, text


    async def fetch():
        """Async docstring."""
        return (
            1
        )
    '''
)


def test_counts_code_and_non_docstring_strings_only():
    # import, class, size, def, text (four lines), return, async def and
    # the three lines of its return
    assert code_lines.code_lines(MODULE) == 13


def test_docstring_only_module_has_no_code():
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_string_after_the_first_statement_is_code():
    assert code_lines.code_lines('x = 1\n"""not a docstring"""\n') == 2
