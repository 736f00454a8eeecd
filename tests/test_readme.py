"""The README's library example runs against the current API, and its
command reference lists the commands the parser registers."""

import argparse
import re
from pathlib import Path

from qlab.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_snippet_runs(capsys):
    text = README.read_text()
    match = re.search(r"^## Library use\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no Library use python block"
    exec(compile(match.group(1), str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "4"


def subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """The subparsers a parser registers, by name."""
    return {
        name: sub
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
        for name, sub in action.choices.items()
    }


def test_command_reference_lists_every_registered_command():
    # a deleted or added command cannot linger in, or hide from, the docs
    text = README.read_text()
    match = re.search(r"^## Command reference\n.*?^```\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no command-reference block"
    listed = set()
    for line in match.group(1).splitlines():
        if line.startswith("qlab "):
            words = line.split()[1:3]
            listed.add((words[0], words[1] if len(words) > 1 and words[1][0] != "-" else None))
    registered = {
        (name, sub_name)
        for name, sub in subcommands(build_parser()).items()
        for sub_name in subcommands(sub) or [None]
    }
    assert listed == registered
