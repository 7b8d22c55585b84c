"""The code-line counter, `codelines.py`."""

from __future__ import annotations

from codelines import code_lines, loaded_lines, package_lines

#: eight code lines: the import, `def f`, the two lines of `y = (x + 1)`,
#: `return y`, `class C` and the two lines of `s = ...`
SNIPPET = '''"""A module docstring,
on two lines."""

import os  # a comment after code

# a comment on a line of its own
def f(x):
    """A function docstring."""
    y = (x +
         1)

    return y


class C:
    """A class docstring.

    Its second paragraph."""
    s = """a string that is not a docstring,
on two lines"""
'''


def test_counts_code_lines_of_a_fixed_snippet():
    assert code_lines(SNIPPET) == 8


def test_a_refusal_loads_only_the_command_line_and_its_gate():
    counts = loaded_lines(["check", "--f", "min", "--arity", "3",
                           "--resolution", "30", "--mode", "float"])
    assert set(counts) == {"ivhom", "ivhom.cli", "ivhom.gate"}
    package = package_lines()
    assert counts == {"ivhom": package["__init__"], "ivhom.cli": package["cli"],
                      "ivhom.gate": package["gate"]}
