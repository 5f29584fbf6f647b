"""The public surface: package exports and the command line's subcommands."""

import argparse

import pytest

import dre
from dre.cli import _build_parser, main


def _subcommands():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(sub.choices)


def test_every_export_resolves():
    missing = [name for name in dre.__all__ if not hasattr(dre, name)]
    assert missing == []


def test_subcommands_are_the_documented_ones():
    assert _subcommands() == sorted(["gen", "cluster", "classify", "render", "estimate",
                                     "bisect", "bounds", "verify", "static-classify"])


@pytest.mark.parametrize("command", _subcommands())
def test_subcommand_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"usage: dre {command}" in capsys.readouterr().out
