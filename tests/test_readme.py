"""The README's library example runs against the current API, its
command examples print what it shows, and its command reference lists
the commands the parser registers."""

import argparse
import re
import shlex
from fractions import Fraction
from pathlib import Path

from qlab.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_snippet_runs(capsys):
    text = README.read_text()
    match = re.search(r"^## Library use\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no Library use python block"
    exec(compile(match.group(1), str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # every line but the Monte Carlo estimate's is exact
    assert len(out) == 8
    assert out[:3] == ["4", "16/5", "13/4"]
    assert out[3].startswith("(Fraction(169, 16), ")
    assert out[4:6] == [str(Fraction(97, 30) ** 8), "64"]
    assert out[7] == "True"


def sh_examples(text: str) -> list[tuple[str, list[str]]]:
    """Each "$ qlab ..." line of the README's sh blocks, without its
    "$ qlab ", and the output lines that follow it up to a blank line."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for chunk in re.split(r"\n\s*\n", block):
            head, *out = chunk.strip("\n").splitlines()
            if head.startswith("$ qlab "):
                examples.append((head[len("$ qlab "):], out))
    return examples


def without_elapsed(lines: list[str]) -> list[str]:
    return [line for line in lines if not line.startswith("elapsed-s: ")]


def test_quick_start_examples_replay(tmp_path, monkeypatch, capsys):
    # in order, in one directory, as a reader would paste them: the
    # fixtures example writes the files the later ones read
    examples = sh_examples(README.read_text())
    assert examples, "README has no qlab examples"
    monkeypatch.chdir(tmp_path)
    for command, shown in examples:
        main(shlex.split(command))
        printed = capsys.readouterr().out.splitlines()
        assert without_elapsed(printed) == without_elapsed(shown), command


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
