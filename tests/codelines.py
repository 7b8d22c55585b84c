"""Code lines of the `ivhom` package: the non-blank, non-comment lines
outside docstrings of each module, and their sum over the modules that one
command line loads.

    python tests/codelines.py                  # each module of src/ivhom
    python tests/codelines.py check --f min    # the modules that run loads

A line counts when a token other than a comment starts, ends or spans it
and no docstring (the first statement of a module, class or function,
when it is a string) covers it. A command line runs in a child process
under `python -S`, so that no site hook loads a module; its modules are
the `ivhom` ones in `sys.modules` when it returns.
"""

from __future__ import annotations

import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
#: tokens that hold no code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
#: runs the command line on its arguments, then prints the `ivhom` modules
#: it loaded on the last line
_PROBE = """
import sys, ivhom.cli as cli
cli.main(sys.argv[1:])
print(sorted(m for m in sys.modules if m.split(".")[0] == "ivhom"))
"""


def code_lines(source: str) -> int:
    """The code lines of the module `source`."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno,
                                              first.end_lineno + 1))
    return len(lines)


def module_path(name: str) -> Path:
    """The source file of the `ivhom` module `name`."""
    *package, leaf = name.split(".")
    if not package:
        return SRC / leaf / "__init__.py"
    return SRC.joinpath(*package, f"{leaf}.py")


def package_lines() -> dict[str, int]:
    """The code lines of each module of `src/ivhom`."""
    return {path.stem: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted((SRC / "ivhom").glob("*.py"))}


def loaded_lines(argv: list[str]) -> dict[str, int]:
    """The code lines of each `ivhom` module that the command line `argv`
    loads."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", _PROBE, *argv],
                          capture_output=True, text=True, env=env, check=False)
    modules = ast.literal_eval(proc.stdout.splitlines()[-1])
    return {name: code_lines(module_path(name).read_text(encoding="utf-8"))
            for name in modules}


def main(argv: list[str]) -> None:
    counts = loaded_lines(argv) if argv else package_lines()
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
