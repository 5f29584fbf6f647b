"""The public surface: package exports and the command line's subcommands."""

import argparse
import ast
import importlib
from pathlib import Path

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


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# Names the benchmark's tracer wraps that no longer resolve: the row-order
# sampling change removed montecarlo.sample_masks, and the one-reach-entry
# kernel replaced PackedGrid's grow steps.  The tracer skips them.
UNRESOLVED = {("dre.montecarlo", "sample_masks"), ("dre.bitgrid", "PackedGrid._grow_forward"),
              ("dre.bitgrid", "PackedGrid._grow_backward")}


def _benchmark_names() -> set[tuple[str, str]]:
    """(module, dotted attribute) of every dre name the benchmark reaches:
    its workloads' imports and their attributes, and its tracer's layers."""
    names = set()
    for node in ast.parse((PERFBENCH / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id in ("LAYERS", "GROW_STEPS"):
            value = ast.literal_eval(node.value)
            for pairs in value.values() if isinstance(value, dict) else [value]:
                for path, attr in pairs:
                    module, _, cls = path.partition(":")
                    names.add((module, f"{cls}.{attr}" if cls else attr))
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    bound = {}  # local name -> (module, attribute)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "dre":
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, alias.name)
    names.update(bound.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in bound:
            module, attr = bound[node.value.id]
            names.add((module, f"{attr}.{node.attr}"))
    return names


def test_benchmark_names_resolve():
    names = _benchmark_names()
    assert {("dre.montecarlo", "_row_propagate"), ("dre.montecarlo", "classify_b_shape"),
            ("dre.bitgrid", "PackedGrid.from_arrows"), ("dre.bitgrid", "PackedGrid.reach"),
            ("dre.env", "sample_masks"), ("dre.rng", "hash_parts"),
            ("dre", "montecarlo.run_plan")} <= names
    missing = []
    for module, attr in sorted(names - UNRESOLVED):
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{attr}")
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
