"""The line measure of scripts/code_lines.py."""
import code_lines

SOURCE = '''"""Module docstring."""

import os  # a trailing comment
# a comment line

def f():
    """A docstring
    on two lines."""
    return """a string that is
    not a docstring"""
'''


def test_counts_code_outside_docstrings():
    # code: the import, the def, and both lines of the returned string
    assert code_lines.count(SOURCE) == (10, 4)


def test_class_docstring_is_not_code():
    assert code_lines.count('class A:\n    """Doc."""\n\n    x = 1\n') == (4, 2)
