"""The README runs as written and documents the options the CLI has."""

import argparse
import re
from pathlib import Path

from nctorus import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    text = README.read_text()
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Library quickstart)", "exec"), {})


def _paragraph(start: str) -> str:
    """The README paragraph that begins with `start`."""
    text = README.read_text()
    return text[text.index(start):].split("\n\n", 1)[0]


def test_readme_flags_are_the_parser_flags():
    documented = set(re.findall(r"`(--[a-z-]+)", _paragraph("Flags (all subcommands):")))
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {opt for parser in sub.choices.values() for action in parser._actions
             for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
    assert documented == flags


def test_readme_config_keys_are_the_cli_keys():
    keys = re.search(r"\(keys: (.*?);", _paragraph("Config files are"), re.S).group(1)
    assert re.findall(r"`(\w+)`", keys) == list(cli._CONFIG_KEYS)
