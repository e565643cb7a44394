"""README drift: the grammar block, the CLI synopsis and the API list match the code."""

from __future__ import annotations

import re
from pathlib import Path

import fsplit
from fsplit import ringspec
from fsplit.cli import _build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(heading: str) -> str:
    """The text under a markdown heading, up to the next heading of any level."""
    start = README.index(f"{heading}\n") + len(heading)
    following = re.search(r"^#+ ", README[start:], re.MULTILINE)
    return README[start:start + following.start()] if following else README[start:]


def _code_block(heading: str) -> str:
    return re.search(r"```\n(.*?)```", _section(heading), re.DOTALL).group(1)


def test_grammar_block_keys_are_the_parsers_keys():
    block = _code_block("### Ring-spec file grammar")
    keys = {line.split("=", 1)[0].split()[0] for line in block.splitlines() if "=" in line}
    assert keys == ringspec._KNOWN_KEYS | {"prime", "chain"}


def test_each_synopsis_lists_its_subcommands_options():
    # a synopsis line continues on the indented lines below it
    block = _code_block("## CLI").replace("\n ", " ")
    synopses = {
        line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line))
        for line in block.splitlines()
        if line.startswith("fsplit ")
    }
    subparsers = next(
        action.choices for action in _build_parser()._actions if action.choices
    )
    options = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.items()
    }
    assert synopses == options


def test_every_python_api_name_is_exported():
    # dotted names such as `.terms` or `fsplit.errors` are attributes and modules
    names = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", _section("### Python API")))
    names.discard("fsplit")
    assert len(names) >= 30
    assert sorted(name for name in names if not hasattr(fsplit, name)) == []
