"""Command-line interface.

Subcommands: gen, cluster, classify, render, estimate, bisect, bounds,
verify, static-classify.  Exit codes: 0 success, 1 computational failure,
2 usage error.  Option precedence is flags > config file > defaults; the
config file is flat `key = value` text.  Every randomized subcommand
prints the effective seed so any run can be replayed.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Optional

from . import __version__
from .bounds import bounds_report, static_classify
from .clusters import backward_cluster, classify_b_shape, forward_cluster
from .env import Window, sample_environment
from .errors import DreError, ValidationError
from .models import ModelId, canonical_name, catalog_names
from .montecarlo import (
    REACH_B,
    REACH_C,
    REACH_M,
    REACH_OTSP,
    SIZE_M,
    TrialPlan,
    bisect_pc,
    classify_shapes,
    otsp_reach_estimate,
    run_plan,
    write_records_csv,
    write_records_jsonl,
)
from .render import render_pgm, render_svg
from .snapshot import load_snapshot, save_snapshot

_DEFAULTS = {
    "p": 0.5,
    "d": 2,
    "radius": 50,
    "seed": 0,
    "trials": 1000,
    "format": "txt",
    "margin": None,
    "statistic": REACH_C,
    "origin": "0,0",
    "target": 0.5,
    "tol": 0.005,
}


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", help="catalog model name (see static-classify --list)")
    common.add_argument("--p", type=float, help="first-atom probability in (0,1)")
    common.add_argument("--d", type=int, help="lattice dimension (default 2)")
    common.add_argument("--radius", type=int, help="window radius M")
    common.add_argument("--seed", type=int, help="master seed")
    common.add_argument("--trials", type=int, help="number of trials")
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--format", choices=["csv", "jsonl", "pgm", "svg", "txt"],
                        help="output format")
    common.add_argument("--config", help="flat key=value config file")

    parser = argparse.ArgumentParser(
        prog="dre",
        description="Simulate and analyze degenerate random environments",
    )
    parser.add_argument("--version", action="version", version=f"dre {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen", parents=[common], help="sample an environment snapshot")

    p_cluster = sub.add_parser("cluster", parents=[common],
                               help="dump forward/backward membership per site")
    p_cluster.add_argument("--in", dest="infile", help="read environment snapshot")
    p_cluster.add_argument("--origin", help="origin site as x,y")

    p_classify = sub.add_parser("classify", parents=[common],
                                help="classify backward-cluster shapes")
    p_classify.add_argument("--in", dest="infile", help="read environment snapshot")
    p_classify.add_argument("--margin", type=int,
                            help="sampling margin around the classified window")

    p_render = sub.add_parser("render", parents=[common],
                              help="render cluster membership to PGM or SVG")
    p_render.add_argument("--in", dest="infile", help="read environment snapshot")
    p_render.add_argument("--origin", help="origin site as x,y")

    p_est = sub.add_parser("estimate", parents=[common],
                           help="Monte Carlo estimate of a reach statistic")
    p_est.add_argument("--statistic",
                       choices=[REACH_C, REACH_B, REACH_M, SIZE_M, REACH_OTSP])

    p_bis = sub.add_parser("bisect", parents=[common],
                           help="finite-window pseudo-critical point")
    p_bis.add_argument("--target", type=float)
    p_bis.add_argument("--tol", type=float)

    sub.add_parser("bounds", parents=[common], help="report every named constant")

    p_ver = sub.add_parser("verify", parents=[common],
                           help="verify a duality over seeded realizations")
    p_ver.add_argument("what", choices=["duality"])
    p_ver.add_argument("--margin", type=int)

    p_static = sub.add_parser("static-classify", parents=[common],
                              help="table classification of a model")
    p_static.add_argument("--list", action="store_true", help="list catalog models")
    return parser


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key = value")
                key, val = (s.strip() for s in line.split("=", 1))
                out[key.replace("-", "_")] = val
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    return out


class _Options:
    """Flag > config > default resolution with light type coercion."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self.args = args
        self.config = config

    def get(self, key: str, default=None, cast=None):
        val = getattr(self.args, key, None)
        if val is None and key in self.config:
            val = self.config[key]
        if val is None:
            val = _DEFAULTS.get(key, default)
        if val is not None and cast is not None and not isinstance(val, cast):
            try:
                val = cast(val)
            except (TypeError, ValueError):
                raise UsageError(f"bad value for --{key}: {val!r}")
        return val

    def require_model(self) -> ModelId:
        name = self.get("model", cast=str)
        if not name:
            raise UsageError("a --model is required; known models: "
                             + ", ".join(catalog_names()))
        return ModelId(canonical_name(name), self.get("p", cast=float), self.get("d", cast=int))

    def origin(self) -> tuple[int, int]:
        raw = self.get("origin", cast=str)
        try:
            x, y = (int(v) for v in raw.split(","))
            return (x, y)
        except ValueError:
            raise UsageError(f"--origin must be x,y integers, got {raw!r}")


@contextlib.contextmanager
def _output(opts: _Options):
    """The --out file, or stdout when none is given."""
    path = opts.get("out")
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yield fh


def _env_from(opts: _Options, infile: Optional[str]):
    if infile:
        return load_snapshot(infile)
    model = opts.require_model()
    radius = opts.get("radius", cast=int)
    seed = opts.get("seed", cast=int)
    print(f"# model={model.label()} radius={radius} seed={seed}", file=sys.stderr)
    return sample_environment(model, Window.centered(radius, model.d), seed)


def _cmd_gen(opts: _Options) -> int:
    env = _env_from(opts, None)
    path = opts.get("out")
    if path:
        save_snapshot(env, path)
    else:
        from .snapshot import write_snapshot

        write_snapshot(env, sys.stdout)
    return 0


def _cmd_cluster(opts: _Options, infile: Optional[str]) -> int:
    env = _env_from(opts, infile)
    origin = opts.origin()
    fwd = forward_cluster(env, origin)
    bwd = backward_cluster(env, origin)
    with _output(opts) as out:
        for site in sorted(set(fwd.sites) | set(bwd.sites)):
            coords = " ".join(str(c) for c in site)
            out.write(f"site {coords} {int(site in fwd.sites)} {int(site in bwd.sites)}\n")
    return 0


def _cmd_classify(opts: _Options, infile: Optional[str]) -> int:
    with _output(opts) as out:
        trials = opts.get("trials", cast=int)
        if infile or trials <= 1:
            env = _env_from(opts, infile)
            report = classify_b_shape(env, (0, 0))
            for line in report.record_lines():
                out.write(line + "\n")
        else:
            model = opts.require_model()
            census = classify_shapes(
                model, opts.get("radius", cast=int), trials,
                master_seed=opts.get("seed", cast=int),
                margin=opts.get("margin", cast=int),
            )
            print(f"# model={model.label()} seed={opts.get('seed', cast=int)}",
                  file=sys.stderr)
            out.write(f"model={census.model} p={census.p!r} M={census.radius}"
                      f" trials={census.trials} reaching={census.reaching}\n")
            for shape in sorted(census.counts):
                out.write(f"count[{shape}]={census.counts[shape]}\n")
            out.write(f"blocked_above_monotone={census.blocked_above_monotone}\n")
    return 0


def _cmd_render(opts: _Options, infile: Optional[str]) -> int:
    fmt = opts.get("format", cast=str)
    if fmt not in ("pgm", "svg"):
        fmt = "pgm"
    path = opts.get("out")
    if not path:
        raise UsageError("render needs --out")
    env = _env_from(opts, infile)
    origin = opts.origin()
    result = render_pgm(env, origin) if fmt == "pgm" else render_svg(env, origin)
    with open(path, "wb") as fh:
        fh.write(result.payload)
    with open(path + ".legend.txt", "w", encoding="ascii") as fh:
        fh.write(result.legend)
    return 0


def _cmd_estimate(opts: _Options) -> int:
    stat = opts.get("statistic", cast=str)
    seed = opts.get("seed", cast=int)
    radius = opts.get("radius", cast=int)
    trials = opts.get("trials", cast=int)
    if stat == REACH_OTSP:
        rec = otsp_reach_estimate(opts.get("p", cast=float), radius, trials, seed)
    else:
        model = opts.require_model()
        plan = TrialPlan(model, radius, trials, seed, stat)
        rec = run_plan(plan)
    print(f"# seed={seed}", file=sys.stderr)
    with _output(opts) as out:
        if opts.get("format", cast=str) == "jsonl":
            write_records_jsonl([rec], out)
        else:
            write_records_csv([rec], out)
    return 0


def _cmd_bisect(opts: _Options) -> int:
    model = opts.get("model", cast=str)
    if not model:
        raise UsageError("bisect needs --model (allowlisted monotone models only)")
    seed = opts.get("seed", cast=int)
    result = bisect_pc(
        model,
        radius=opts.get("radius", cast=int),
        target=opts.get("target", cast=float),
        tol=opts.get("tol", cast=float),
        trials_per_probe=opts.get("trials", cast=int),
        master_seed=seed,
    )
    print(f"# seed={seed}", file=sys.stderr)
    with _output(opts) as out:
        out.write(f"p_hat={result.p_hat:.5f}\n")
        out.write(f"bracket={result.bracket[0]:.5f},{result.bracket[1]:.5f}\n")
        for (p, est, se) in result.probes:
            out.write(f"probe p={p:.5f} estimate={est:.5f} se={se:.5f}\n")
    return 0


def _cmd_bounds(opts: _Options) -> int:
    report = bounds_report()
    with _output(opts) as out:
        if opts.get("format", cast=str) == "jsonl":
            import json

            for key, text, source in report.entries:
                out.write(json.dumps({"key": key, "value": text, "source": source},
                                     sort_keys=True) + "\n")
        else:
            for line in report.lines():
                out.write(line + "\n")
    return 0


def _cmd_verify(opts: _Options, what: str) -> int:
    model = opts.require_model()
    trials = opts.get("trials", cast=int)
    seed = opts.get("seed", cast=int)
    census = classify_shapes(
        model, opts.get("radius", cast=int), trials, master_seed=seed,
        verify_dual=True, margin=opts.get("margin", cast=int),
    )
    blocked = census.counts.get("BlockedAbove", 0)
    print(f"# seed={seed}", file=sys.stderr)
    with _output(opts) as out:
        out.write(f"what={what} model={census.model} p={census.p!r}"
                  f" M={census.radius} trials={census.trials}\n")
        out.write(f"blocked_above={blocked} verified={census.blocked_above_verified}\n")
    return 0 if census.blocked_above_verified == blocked else 1


def _cmd_static_classify(opts: _Options, list_models: bool) -> int:
    with _output(opts) as out:
        if list_models:
            for name in catalog_names():
                out.write(name + "\n")
            return 0
        model = opts.require_model()
        cls = static_classify(model)
        out.write(f"model={cls.model}\n")
        out.write(f"theta_plus={cls.theta_plus}\n")
        out.write(f"theta_minus={cls.theta_minus}\n")
        out.write(f"theta={cls.theta}\n")
        out.write(f"notes={';'.join(cls.notes)}\n")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _Options(args, _load_config(getattr(args, "config", None)))
        cmd = args.command
        if cmd == "gen":
            return _cmd_gen(opts)
        if cmd == "cluster":
            return _cmd_cluster(opts, args.infile)
        if cmd == "classify":
            return _cmd_classify(opts, args.infile)
        if cmd == "render":
            return _cmd_render(opts, args.infile)
        if cmd == "estimate":
            return _cmd_estimate(opts)
        if cmd == "bisect":
            return _cmd_bisect(opts)
        if cmd == "bounds":
            return _cmd_bounds(opts)
        if cmd == "verify":
            return _cmd_verify(opts, args.what)
        if cmd == "static-classify":
            return _cmd_static_classify(opts, args.list)
        raise UsageError(f"unknown command {cmd!r}")
    except (UsageError, ValidationError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
