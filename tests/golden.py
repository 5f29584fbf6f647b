"""Write golden.json, the digests tests/test_golden.py checks.

    PYTHONPATH=src python tests/golden.py            # write golden.json
    PYTHONPATH=src python tests/golden.py --check    # compare, write nothing

Each case turns one entry point's results on small fixed inputs into text
lines; golden.json maps the case name to the SHA-256 of those lines.  Run
it only at a commit whose results are trusted.  A change that regenerates
golden.json names every digest that moved, and why, in CHANGES.md; a
performance or refactor change must not regenerate it.  --check recomputes
every case, prints the names whose digest differs and any missing or extra
names, and exits 1 on any mismatch.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from dre.bounds import FSOSP, OTSP, verify_duality
from dre.cli import main as dre_main
from dre.clusters import (BACKWARD, FORWARD, UPPER, BlockingFunction, _bfs_run, _bfs_table,
                          backward_cluster, bfs_parents, classify_b_shape,
                          communicating_cluster, dn_trajectory, forward_cluster,
                          interval_chain)
from dre.env import Window, sample_environment
from dre.measure import SupportMeasure
from dre.models import ModelId
from dre.montecarlo import (REACH_B, REACH_C, REACH_M, SIZE_M, TrialPlan, bisect_pc,
                            check_theta_identity, classify_shapes, dn_transition_test,
                            lu_walk_test, m_size_stats, martingale_test,
                            otsp_reach_estimate, run_plan, seoa_excursion_test,
                            theta_minus_curve, w_walk_drift_test, wn_crossing_test)
from dre.render import render_pgm
from dre.walks import (build_open_cycle, coalescence_stats, cycle_dump_lines,
                       detect_gigantic_m, quadrant_path, seoa_path, swoa_path,
                       trace_dump_lines)

PATH = Path(__file__).with_name("golden.json")

# (model, p, window radius, box radius, seed) under the construction the
# model picks; the first finds a cycle, the second finds none
CYCLE_INPUTS = {
    "spiral_lrud": [("EW-NS", 0.5, 20, 3, 1), ("SWE-EW", 0.5, 15, 3, 0)],
    "spiral_swe_n": [("SWE-N", 0.7, 20, 2, 1), ("SWE-N", 0.9, 12, 2, 0)],
    "orthant": [("NE-SW", 0.5, 60, 3, 0), ("NE-SW", 0.5, 60, 3, 1)],
}
GIGANTIC_INPUTS = [("EW-NS", 0.5, 15, 3, 1), ("EW-NS", 0.5, 15, 3, 0),
                   ("SWE-N", 0.7, 20, 2, 2), ("NE-SW", 0.95, 15, 3, 0)]
# sample counts beside the default 10: none, which reaches from no site, and
# 25, which picks a quarter of the found cycles' sites
GIGANTIC_SAMPLES = (0, 25)
# (model, p, seed) rendered on a 30-radius window from the centre, from an
# origin off it on both axes and from a corner of the edge ring
RENDER_INPUTS = [("NE-SW", 0.6, 5), ("EW-NS", 0.5, 2), ("SWE-N", 0.4, 7)]
RENDER_ORIGINS = ((0, 0), (3, -7), (-30, 30))
BFS_MODELS = [("NE-SW", 0.5), ("EW-NS", 0.5), ("SWE-N", 0.4), ("NSEW-.", 0.55),
              ("NE-.", 0.7)]
# (p, verify_dual) of the census at R=100, margin 100
CENSUS_RUNS = ((0.5, False), (0.9, True))
# seeds of the one-window reports on NE-SW at R=30, margin 30: at p=0.5
# FullWindow and Finite, at p=0.9 BlockedAbove
B_SHAPE_SEEDS = range(6)
# d=3 atoms {+e1, +e2}, {+e3, -e1}, {+e2, -e2, -e3}; bit i is +e(i+1), bit 3+i is -e(i+1)
MEASURE_3D = SupportMeasure(3, ((0b000011, 0.4), (0b001100, 0.35), (0b110010, 0.25)))
RUN_PLAN_MODELS = [("NSEW-.", 0.6), ("NE-.", 0.7)]
# raw d=2 measures no catalog model gives: four atoms, one of them the
# empty mask (E=1, N=2, W=4, S=8), and a single atom, which has no threshold
RUN_PLAN_RAW = {"raw4": SupportMeasure(2, ((0, 0.15), (0b0011, 0.3), (0b1100, 0.3),
                                           (0b0111, 0.25))),
                "raw1": SupportMeasure(2, ((0b1101, 1.0),))}
RADII = (1, 63, 64, 65)
# reach_C and reach_B on the oriented row sweep, at rows of one word and across
# its edge: N-E and NE-N give E and N different gate planes (N-E's atom 0 is
# N), NE4 has all four NE-oriented atoms, and NE-top's one threshold rounds to
# 2^53, so no site draws its second atom and it has no threshold plane.  Every
# site of N-E and NE-N can step forward, and every NE-N site steps N, so their
# reach_C and NE-N's reach_B are 1 on every trial, as NE-top's are
SWEEP_PLAN_MODELS = {"N-E/0.4": ModelId("N-E", 0.4), "NE-N/0.4": ModelId("NE-N", 0.4),
                     "NE4": SupportMeasure(2, ((0b0011, 0.4), (0b0001, 0.25), (0b0010, 0.25),
                                               (0, 0.1))),
                     "NE-top": SupportMeasure(2, ((0b0011, 1 - 1e-17), (0, 1e-17)))}
SWEEP_RADII = (63, 64, 65)
# 201 columns, past the sweep's first column band: every trial of NE-top
# and N-E/0.4's reach_C runs to the edge, so the band widens within a
# block, and 300 trials start a second batch after the first has widened
BAND_RADII = (200,)
BAND_MODELS = ("NE-top", "N-E/0.4")
# one atom E and a rare empty one: a trial reaches the edge only through one
# unbroken E run, so an E run cut at the band's edge, and not redone, dies
# there and the estimates fall to 0
BAND_E_RUN = SupportMeasure(2, ((0b0001, 0.99), (0, 0.01)))
# windows of 63, 65, 127, 129 and 131 columns: one word, and across one or two word edges
M_SIZE_RADII = (31, 32, 63, 64, 65)
# EW-NS offers one arrow per quadrant at every site; NSEW-NE draws tiebreaks
QUADRANT_MODELS = [("EW-NS", 0.5), ("NSEW-NE", 0.5)]
# lattice -> (model, p, lowest and highest height): heights reach past both
# window rows, and each lattice gives both verdicts (a small SWE-N p makes N common)
DUALITY_INPUTS = {OTSP: ("NE-SW", 0.8, -5, 6), FSOSP: ("SWE-N", 0.05, -5, 6)}
# at these p each model's chains both die out and reach a side column or the
# bottom row, from the centre and from an origin off it on both axes
CHAIN_INPUTS = [("EW-N", 0.4), ("NE-W", 0.4)]
# sweeps whose row counts end on and between the sweep's blocks of up to four
# rows: 1-4 rows, and 67 rows in a batch of 256 trials and a batch of 44
BLOCK_RADII = (1, 2, 3, 66)
BLOCK_CURVE_RADII = (1, 2, 3, 4, 66)


def _cycle_lines(cycle) -> list[str]:
    if cycle is None:
        return ["None"]
    return [cycle.strategy] + cycle_dump_lines(cycle)


def _build_open_cycle(name, p, radius, m, seed) -> list[str]:
    env = sample_environment(ModelId(name, p), Window.centered(radius), seed)
    return _cycle_lines(build_open_cycle(env, m))


def _detect_gigantic(name, p, radius, m, seed, samples=10) -> list[str]:
    env = sample_environment(ModelId(name, p), Window.centered(radius), seed)
    rep = detect_gigantic_m(env, m, samples=samples, seed=seed)
    return ([f"found {int(rep.found)}"]
            + [f"check {k} {int(v)}" for k, v in sorted(rep.checks.items())]
            + [f"note {n}" for n in rep.notes] + _cycle_lines(rep.cycle))


def _render(name, p, seed) -> list[str]:
    env = sample_environment(ModelId(name, p), Window.centered(30), seed)
    lines = []
    for origin in RENDER_ORIGINS:
        res = render_pgm(env, origin)
        lines += res.payload.decode("ascii").splitlines() + res.legend.splitlines()
    return lines


def _bfs(env, origin) -> list[str]:
    lines = []
    for kind in (FORWARD, BACKWARD):
        for label, pairs in (("all", bfs_parents(env, origin, kind)),
                             ("avoiding", _bfs_run(_bfs_table(env, kind, 1), origin))):
            lines.append(f"{kind} {label}")
            for site, parent in dict(pairs).items():
                lines.append(f"{site} {parent}")
    return lines


def _clusters(env, origins) -> list[str]:
    lines = []
    for origin in origins:
        for cluster in (forward_cluster, backward_cluster, communicating_cluster):
            res = cluster(env, origin)
            lines.append(f"{res.kind} {origin} {int(res.touches_boundary)} "
                         f"{sorted(res.sites)}")
    return lines


def _run_plan(model, statistic, radii=RADII, trials=6, seed=11) -> list[str]:
    lines = []
    for radius in radii:
        rec = run_plan(TrialPlan(model, radius, trials, seed, statistic))
        lines.append(f"{rec.radius} {rec.trials} {rec.estimate!r} {rec.se!r}")
    return lines


def _m_size_stats(name, p) -> list[str]:
    return [repr(row) for row in m_size_stats(ModelId(name, p), M_SIZE_RADII, 12, 7)]


def _theta_identity(name, p) -> list[str]:
    rep = check_theta_identity(ModelId(name, p), 40, 200, master_seed=5)
    return [repr(rep.theta_plus.estimate), repr(rep.theta_plus.se),
            repr(rep.theta_minus.estimate), repr(rep.theta_minus.se), repr(rep.z)]


def _quadrant_paths(name, p) -> list[str]:
    lines = []
    for seed in (0, 1):
        env = sample_environment(ModelId(name, p), Window.centered(12), seed)
        for quadrant in ("NE", "SE"):
            lines.append(f"{quadrant} seed {seed}")
            lines += trace_dump_lines(quadrant_path(env, (-3, 2), quadrant, seed=seed))
    return lines


def _on_average_paths() -> list[str]:
    lines = []
    for seed in (0, 1):
        env = sample_environment(ModelId("SWE-N", 0.6), Window.centered(15), seed)
        for path in (seoa_path, swoa_path):
            trace, excursions = path(env, (1, 4))
            lines += trace_dump_lines(trace) + [f"excursions {excursions}"]
    return lines


def _coalescence() -> list[str]:
    stats = coalescence_stats(0.5, (2, -2), (-2, 2), trials=40, max_levels=60,
                              master_seed=6)
    return [f"{stats.trials} {stats.met} {sorted(stats.meeting_levels.items())} "
            f"{sorted(stats.diff_step_freq.items())} {stats.diff_steps}"]


# starts on different anti-diagonals, in both orders, so one path walks
# alone up to the other's level before the two step together
COALESCENCE_STARTS = (((0, 0), (3, 1)), ((5, 2), (0, 0)))


def _coalescence_levelled(x, y) -> list[str]:
    return [repr(coalescence_stats(0.5, x, y, trials=40, max_levels=60, master_seed=6))]


def _record_lines(recs) -> list[str]:
    return [f"{r.model} {r.p!r} {r.radius} {r.trials} {r.statistic} {r.estimate!r} {r.se!r}"
            for r in recs]


def _dre_gen() -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        dre_main(["gen", "--model", "SWE-N", "--p", "0.4", "--radius", "6", "--seed", "8"])
    return out.getvalue().splitlines()


def _bisect_lines(res) -> list[str]:
    return [repr(res.p_hat), repr(res.bracket)] + [repr(probe) for probe in res.probes]


def _bisect(name) -> list[str]:
    return _bisect_lines(bisect_pc(name, 33, tol=0.02, trials_per_probe=100, master_seed=2))


def _classify_shapes(name, p, radius=8, margin=None, trials=None,
                     verify_dual=True) -> list[str]:
    if trials is None:
        trials = 10 if margin is None else 12
    c = classify_shapes(ModelId(name, p), radius, trials, master_seed=3,
                        verify_dual=verify_dual, margin=margin)
    return [f"{sorted(c.counts.items())} {c.reaching} {c.blocked_above_monotone} "
            f"{c.blocked_above_verified}"]


def _b_shape_reports(name, p, radius, margin) -> list[str]:
    inner = Window.centered(radius)
    lines = []
    for seed in B_SHAPE_SEEDS:
        env = sample_environment(ModelId(name, p), Window.centered(radius + margin), seed)
        rep = classify_b_shape(env, (0, 0), inner=inner)
        lines += rep.record_lines() + [repr(rep.complement_intervals)]
    return lines


def _verify_duality(lattice, name, p, lo, hi) -> list[str]:
    window = Window.box((-4, 4), (-3, 5))
    lines = []
    for seed in range(20):
        env = sample_environment(ModelId(name, p), window, seed)
        values = np.random.default_rng(seed).integers(lo, hi, window.shape[0], endpoint=True)
        if lattice == OTSP:
            values = sorted(values, reverse=True)
        w = BlockingFunction.from_values(UPPER, (-4, 4), [int(v) for v in values])
        lines.append(repr(verify_duality(env, w, lattice)))
    return lines


def _interval_chains(name, p) -> list[str]:
    lines = []
    for seed in range(30):
        env = sample_environment(ModelId(name, p), Window.box((-6, 6), (-10, 2)), seed)
        for origin in ((0, 0), (3, -3)):
            chain = interval_chain(env, origin)
            lines.append(repr(chain))
            if name == "EW-N":
                lines.append(repr(dn_trajectory(chain)))
    return lines


def cases() -> dict:
    """Case name -> a function returning that case's lines."""
    out = {}
    for strategy, inputs in CYCLE_INPUTS.items():
        for args in inputs:
            out["build_open_cycle/{}/{}/{}/R{}/m{}/s{}".format(strategy, *args)] = (
                lambda args=args: _build_open_cycle(*args))
    for args in GIGANTIC_INPUTS:
        out["detect_gigantic_m/{}/{}/R{}/m{}/s{}".format(*args)] = (
            lambda args=args: _detect_gigantic(*args))
        for samples in GIGANTIC_SAMPLES:
            out["detect_gigantic_m/{}/{}/R{}/m{}/s{}/samples{}".format(*args, samples)] = (
                lambda args=args, samples=samples: _detect_gigantic(*args, samples))
    for name, p, seed in RENDER_INPUTS:
        out[f"render_pgm/{name}/{p}/R30/s{seed}"] = (
            lambda name=name, p=p, seed=seed: _render(name, p, seed))
    for name, p in BFS_MODELS:
        env = lambda name=name, p=p: sample_environment(ModelId(name, p), Window.centered(7), 5)
        out[f"bfs_parents/{name}/{p}"] = lambda env=env: _bfs(env(), (2, -3))
        out[f"clusters/{name}/{p}"] = lambda env=env: _clusters(env(), [(0, 0), (-4, 2)])
    env3 = lambda: sample_environment(MEASURE_3D, Window.box((-3, 3), (-2, 4), (-3, 2)), 9)
    out["bfs_parents/d3"] = lambda: _bfs(env3(), (2, 0, -2))
    out["clusters/d3"] = lambda: _clusters(env3(), [(0, 0, 0), (-3, 4, 2)])
    models = {f"{name}/{p}": ModelId(name, p) for name, p in RUN_PLAN_MODELS}
    for label, model in {**models, **RUN_PLAN_RAW}.items():
        for statistic in (REACH_C, REACH_B, REACH_M, SIZE_M):
            out[f"run_plan/{label}/{statistic}"] = (
                lambda model=model, statistic=statistic: _run_plan(model, statistic))
    for label, model in SWEEP_PLAN_MODELS.items():
        for statistic in (REACH_C, REACH_B):
            out[f"run_plan/sweep/{label}/{statistic}"] = (
                lambda model=model, statistic=statistic: _run_plan(model, statistic,
                                                                   SWEEP_RADII, 40))
    for label in BAND_MODELS:
        for statistic in (REACH_C, REACH_B):
            out[f"run_plan/sweep/{label}/{statistic}/R200"] = (
                lambda model=SWEEP_PLAN_MODELS[label], statistic=statistic: _run_plan(
                    model, statistic, BAND_RADII, 300))
    for statistic in (REACH_C, REACH_B):
        out[f"run_plan/sweep/E-run/{statistic}/R200/s7"] = (
            lambda statistic=statistic: _run_plan(BAND_E_RUN, statistic, BAND_RADII, 300, 7))
    for name, p in (("NE-SW", 0.9), ("SWE-N", 0.5)):
        out[f"classify_shapes/{name}/{p}"] = lambda name=name, p=p: _classify_shapes(name, p)
    # an 81-column sampling window: the census reach crosses a word edge
    for p in (0.5, 0.9):
        out[f"classify_shapes/NE-SW/{p}/R20/margin20"] = (
            lambda p=p: _classify_shapes("NE-SW", p, 20, 20))
    # the perfbench census's size and runs: 401-row windows, whose backward
    # sets leave a one-window reach's starting row band and widen it many times
    for p, dual in CENSUS_RUNS:
        out[f"classify_shapes/NE-SW/{p}/R100/margin100/dual{int(dual)}"] = (
            lambda p=p, dual=dual: _classify_shapes("NE-SW", p, 100, 100, 4, dual))
    for p in (0.5, 0.9):
        out[f"classify_b_shape/NE-SW/{p}/R30/margin30"] = (
            lambda p=p: _b_shape_reports("NE-SW", p, 30, 30))
    for lattice, args in DUALITY_INPUTS.items():
        out[f"verify_duality/{lattice}"] = (
            lambda lattice=lattice, args=args: _verify_duality(lattice, *args))
    for name, p in CHAIN_INPUTS:
        out[f"interval_chain/{name}/{p}"] = lambda name=name, p=p: _interval_chains(name, p)
    out["m_size_stats/NE-SW/0.5"] = lambda: _m_size_stats("NE-SW", 0.5)
    out["check_theta_identity/SWE-./0.6"] = lambda: _theta_identity("SWE-.", 0.6)
    out["bisect_pc/SWE-."] = lambda: _bisect("SWE-.")
    for name in ("NE-.", "otsp"):
        out[f"bisect_pc/{name}"] = lambda name=name: _bisect(name)
    for name, p in QUADRANT_MODELS:
        out[f"quadrant_path/{name}/{p}"] = lambda name=name, p=p: _quadrant_paths(name, p)
    out["seoa_swoa_path/SWE-N/0.6"] = _on_average_paths
    out["coalescence_stats/0.5"] = _coalescence
    for x, y in COALESCENCE_STARTS:
        out["coalescence_stats/0.5/{}-{}".format(x, y).replace(" ", "")] = (
            lambda x=x, y=y: _coalescence_levelled(x, y))
    out["otsp_reach_estimate/0.6"] = lambda: _record_lines(
        [otsp_reach_estimate(0.6, 20, 100, 4), otsp_reach_estimate(0.6, 20, 100, 4, True)])
    out["otsp_reach_estimate/0.8/R200"] = lambda: _record_lines(
        [otsp_reach_estimate(0.8, 200, 300, 4, True)])
    out["theta_minus_curve/0.6"] = lambda: _record_lines(
        theta_minus_curve(0.6, (5, 10, 20), 100, 4))
    out["bisect_pc/NE-./R66/trials300"] = lambda: _bisect_lines(
        bisect_pc("NE-.", 66, trials_per_probe=300, bracket=(0.55, 0.9)))
    out["otsp_reach_estimate/0.6/blocks"] = lambda: _record_lines(
        [otsp_reach_estimate(0.6, r, 300, origin_open=True) for r in BLOCK_RADII])
    out["theta_minus_curve/0.5/blocks"] = lambda: _record_lines(
        theta_minus_curve(0.5, BLOCK_CURVE_RADII, 300))
    out["martingale_test/0.5"] = lambda: [repr(martingale_test(0.5, 20, 50, 10, 4))]
    out["dn_transition_test/0.4"] = lambda: [repr(dn_transition_test(0.4, 200, 4, 4))]
    out["lu_walk_test/0.5"] = lambda: [repr(lu_walk_test(0.5, 200, 4))]
    out["seoa_excursion_test/0.6"] = lambda: [repr(seoa_excursion_test(0.6, 200, 4))]
    out["w_walk_drift_test/0.5"] = lambda: [repr(w_walk_drift_test(0.5, 200, 4))]
    out["wn_crossing_test/0.5"] = lambda: [repr(wn_crossing_test(0.5, 30, 40, 5, 4))]
    # no trial crosses at p=0.3, and the lower edge's scans right are long
    out["wn_crossing_test/0.3"] = lambda: [repr(wn_crossing_test(0.3, 30, 40, 5, 4))]
    out["wn_crossing_test/0.5/gap1/j0"] = lambda: [repr(
        wn_crossing_test(0.5, 30, 40, start_gap=1, master_seed=4, j_max=0))]
    out["dre_gen/SWE-N/0.4/R6/s8"] = _dre_gen
    return out


def digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def check(golden: dict) -> int:
    """Print every case whose digest differs from golden.json; 1 on any mismatch."""
    stored = json.loads(PATH.read_text())
    moved = [name for name in golden if name in stored and golden[name] != stored[name]]
    report = ([f"moved {name}" for name in moved]
              + [f"missing {name}" for name in stored if name not in golden]
              + [f"extra {name}" for name in golden if name not in stored])
    for line in report:
        print(line)
    print(f"{len(golden)} cases, {len(report)} mismatches")
    return 1 if report else 0


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print("usage: golden.py [--check]", file=sys.stderr)
        return 2
    golden = {name: digest(make()) for name, make in cases().items()}
    if argv:
        return check(golden)
    PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(golden)} digests to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
