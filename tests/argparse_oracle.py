"""The argparse parser that `ivhom` used before it read its command line
itself, built from the same tables, `cli._COMMANDS` and `cli._FLAGS`. Tests
compare `cli.parse_args` with it: a line it accepts must give the same
fields, a line it refuses (exit 2) must be refused, and a request for help
(exit 0) must print help."""

from __future__ import annotations

import argparse

from ivhom.cli import _COMMANDS, _COMMON, _FLAGS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivhom",
        description="Exhaustive grid checks for interval-valued homogeneity laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in flags + _COMMON:
            kind, choices, _, help_ = _FLAGS[name]
            p.add_argument(f"--{name}", type=kind, choices=choices, help=help_)
        if command == "eval":
            p.add_argument("intervals", nargs="+",
                           help="interval literals, e.g. [0.2,0.5]")
    return parser
