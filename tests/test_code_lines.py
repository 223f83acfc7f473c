"""The code-line counter's rules, pinned on a fixed snippet."""
import textwrap

from code_lines import count_code_lines

SNIPPET = textwrap.dedent('''\
    """Module docstring,
    two lines."""
    import numpy as np  # a trailing comment

    # a comment line


    class Thing:
        """Class docstring."""
        text = """a string that is not a docstring
        spans two lines"""

        def method(self, x,
                   y):
            """Method docstring,

            three lines."""
            return (x +
                    y)


    def bare():
        return 1
    ''')


def test_code_lines_drop_blanks_comments_and_docstrings():
    # import, class, the two lines of `text`, def and its continuation,
    # return and its continuation, def and return
    assert count_code_lines(SNIPPET) == 10


def test_a_string_that_is_not_first_in_a_body_is_code():
    assert count_code_lines('x = 1\n"""not a docstring"""\n') == 2
