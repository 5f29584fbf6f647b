"""The three benchmark workloads, their result checks and cross-checks.

A workload's job is a fixed closed loop of calls into one `dre.montecarlo`
entry point, in blocks of one call per configuration.  Each call has its
own master seed, drawn in order from the benchmark seed by the standard
library's generator; the package receives only those generated inputs.
The timed phase repeats the job, so every repetition must return the same
results bit for bit.

Why these three (each stresses different layers; see README.md):

* reach-generic: `run_plan` on models that are not NE-oriented, so every
  trial samples a window, packs it and runs `PackedGrid.reach`.  It mixes
  early-exit reaches, long fixpoints and full fixpoints (size_M).
* sweep-bisect: `bisect_pc` on NE-. and otsp at R=200, the batched row
  sweep.  Hash-bound, never touches bitgrid, largest memory footprint.
* shape-census: `classify_shapes` on NE-SW, one environment at a time on a
  401x401 window with a full backward fixpoint, then the clusters/bounds
  checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from dre import montecarlo, rng
from dre.bitgrid import PackedGrid
from dre.clusters import backward_cluster, classify_b_shape, forward_cluster
from dre.env import Window, sample_environment, sample_masks
from dre.models import ModelId, measure_for
from dre.montecarlo import REACH_B, REACH_C, SIZE_M, TrialPlan


@dataclass(frozen=True)
class Call:
    """One call into a montecarlo entry point, with its generated inputs."""

    label: str
    entry: str
    args: tuple
    kwargs: dict = field(default_factory=dict)

    def run(self, call=lambda fn, *a, **k: fn(*a, **k)):
        """Invoke the entry point, looked up now so a traced run sees it too."""
        return call(getattr(montecarlo, self.entry), *self.args, **self.kwargs)


def _seeds(workload: str, seed: int):
    gen = random.Random(f"{workload}:{seed}")
    while True:
        yield gen.getrandbits(63)


# ---------------------------------------------------------------------------
# reach-generic
# ---------------------------------------------------------------------------

REACH_RADIUS = 100
REACH_PLANS = (
    ("NE-SW", 0.5, REACH_C),
    ("NE-SW", 0.9, REACH_B),
    ("EW-NS", 0.5, REACH_C),
    ("NE-SW", 0.9, SIZE_M),
    ("NSEW-.", 0.65, REACH_C),
)
REACH_BLOCKS = 20
REACH_TRIALS = 3
REACH_CHECK_TRIALS = 2


def _reach_job(seed: int) -> list[Call]:
    seeds = _seeds("reach-generic", seed)
    return [Call(f"{name}:{p}:{stat}", "run_plan",
                 (TrialPlan(ModelId(name, p), REACH_RADIUS, REACH_TRIALS,
                            next(seeds), stat),))
            for _ in range(REACH_BLOCKS) for name, p, stat in REACH_PLANS]


def _record_summary(rec) -> dict:
    return {"estimate": rec.estimate, "se": rec.se}


def _record_problems(call: Call, rec) -> list[str]:
    proportion = rec.statistic != SIZE_M
    if rec.se < 0.0 or (proportion and not 0.0 <= rec.estimate <= 1.0):
        return [f"{call.label}: estimate {rec.estimate} se {rec.se}"]
    return []


def _bfs_value(env, stat: str) -> float:
    if stat == REACH_C:
        return float(forward_cluster(env, (0, 0)).touches_boundary)
    if stat == REACH_B:
        return float(backward_cluster(env, (0, 0)).touches_boundary)
    fwd, bwd = forward_cluster(env, (0, 0)), backward_cluster(env, (0, 0))
    return float(len(fwd.sites & bwd.sites))


def _reach_cross_check(calls: list[Call]) -> list[str]:
    """First trials of each plan's first call against the BFS clusters."""
    problems = []
    window = Window.centered(REACH_RADIUS, 2)
    for call in calls[:len(REACH_PLANS)]:
        plan = call.args[0]
        short = TrialPlan(plan.model, plan.radius, REACH_CHECK_TRIALS,
                          plan.master_seed, plan.statistic)
        bfs = np.array([
            _bfs_value(sample_environment(plan.model, window,
                                          rng.spawn_seed(plan.master_seed, t)),
                       plan.statistic)
            for t in range(REACH_CHECK_TRIALS)])
        got = montecarlo.run_plan(short).estimate
        if float(bfs.mean()) != got:
            problems.append(f"{call.label}: run_plan {got!r} != BFS {float(bfs.mean())!r}")
    return problems


# ---------------------------------------------------------------------------
# sweep-bisect
# ---------------------------------------------------------------------------

SWEEP_RADIUS = 200
SWEEP_TRIALS_PER_PROBE = 100
SWEEP_BISECTIONS = (("NE-.", (0.55, 0.9)), ("otsp", (0.45, 0.8)))
SWEEP_CHECK_TRIALS = 4


def _sweep_job(seed: int) -> list[Call]:
    seeds = _seeds("sweep-bisect", seed)
    return [Call(f"{model}:bisect", "bisect_pc", (model,),
                 {"radius": SWEEP_RADIUS, "bracket": bracket,
                  "trials_per_probe": SWEEP_TRIALS_PER_PROBE,
                  "master_seed": next(seeds)})
            for model, bracket in SWEEP_BISECTIONS]


def _bisect_summary(res) -> dict:
    return {"p_hat": res.p_hat, "probes": [list(p) for p in res.probes]}


def _sweep_cross_check(calls: list[Call]) -> list[str]:
    """NE-. sweep trials at the bracket ends against generic PackedGrid.reach.

    The probe seeds are the ones bisect_pc derives for its first two
    probes.  Without the live-origin forcing the sweep is reached through
    run_plan; NE arrows keep the cluster in the quadrant, so contact with
    the centred window's edge is contact with its top row or right column.
    """
    problems = []
    call = calls[0]
    window = Window.centered(SWEEP_RADIUS, 2)
    for idx, p in enumerate(call.kwargs["bracket"]):
        model = ModelId(call.args[0], p)
        probe_seed = rng.spawn_seed(call.kwargs["master_seed"], idx)
        got = montecarlo.run_plan(TrialPlan(model, SWEEP_RADIUS, SWEEP_CHECK_TRIALS,
                                            probe_seed, REACH_C)).estimate
        touched = []
        for t in range(SWEEP_CHECK_TRIALS):
            arrows = sample_masks(measure_for(model), window, rng.spawn_seed(probe_seed, t))
            _, hit = PackedGrid.from_arrows(arrows).reach(
                SWEEP_RADIUS, SWEEP_RADIUS, stop_at_edge=True)
            touched.append(float(hit))
        want = float(np.mean(touched))
        if got != want:
            problems.append(f"{model.label()}: sweep {got!r} != reach {want!r}")
    return problems


def _bisect_problems(call: Call, res) -> list[str]:
    lo, hi = call.kwargs["bracket"]
    if not lo <= res.p_hat <= hi:
        return [f"{call.label}: p_hat {res.p_hat} outside {lo, hi}"]
    if any(not 0.0 <= est <= 1.0 for _, est, _ in res.probes):
        return [f"{call.label}: probe estimate outside [0, 1]"]
    return []


# ---------------------------------------------------------------------------
# shape-census
# ---------------------------------------------------------------------------

CENSUS_RADIUS = 100
CENSUS_MARGIN = 100
CENSUS_RUNS = ((0.5, False), (0.9, True))
CENSUS_BLOCKS = 100
CENSUS_TRIALS = 1


def _census_job(seed: int) -> list[Call]:
    seeds = _seeds("shape-census", seed)
    return [Call(f"NE-SW:{p}:census", "classify_shapes",
                 (ModelId("NE-SW", p), CENSUS_RADIUS, CENSUS_TRIALS),
                 {"master_seed": next(seeds), "verify_dual": dual,
                  "margin": CENSUS_MARGIN})
            for _ in range(CENSUS_BLOCKS) for p, dual in CENSUS_RUNS]


def _census_summary(census) -> dict:
    return {"counts": dict(sorted(census.counts.items())),
            "reaching": census.reaching,
            "blocked_above_monotone": census.blocked_above_monotone,
            "blocked_above_verified": census.blocked_above_verified}


def _census_problems(call: Call, census) -> list[str]:
    """Criterion 08's invariant: every BlockedAbove is monotone and verified."""
    blocked = census.counts.get("BlockedAbove", 0)
    problems = []
    if sum(census.counts.values()) != census.trials:
        problems.append(f"{call.label}: counts do not sum to trials")
    if census.blocked_above_monotone != blocked:
        problems.append(f"{call.label}: {blocked} BlockedAbove, "
                        f"{census.blocked_above_monotone} monotone")
    if call.kwargs["verify_dual"] and census.blocked_above_verified != blocked:
        problems.append(f"{call.label}: {blocked} BlockedAbove, "
                        f"{census.blocked_above_verified} verified")
    return problems


def _census_cross_check(calls: list[Call]) -> list[str]:
    """First environment of each p: packed backward set against the BFS."""
    problems = []
    inner = Window.centered(CENSUS_RADIUS, 2)
    outer = Window.centered(CENSUS_RADIUS + CENSUS_MARGIN, 2)
    for call in calls[:len(CENSUS_RUNS)]:
        model = call.args[0]
        env = sample_environment(model, outer,
                                 rng.spawn_seed(call.kwargs["master_seed"], 0))
        report = classify_b_shape(env, (0, 0), inner=inner)
        sites = [s for s in backward_cluster(env, (0, 0)).sites if inner.contains(s)]
        touched = any(inner.on_edge(s) for s in sites)
        if (len(sites), touched) != (report.cluster_size, report.touches_boundary):
            problems.append(f"{call.label}: packed ({report.cluster_size}, "
                            f"{report.touches_boundary}) != BFS ({len(sites)}, {touched})")
        one = montecarlo.classify_shapes(model, CENSUS_RADIUS, 1,
                                         **call.kwargs)
        if one.counts != {report.shape: 1}:
            problems.append(f"{call.label}: census {one.counts} != shape {report.shape}")
    return problems


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    job: Callable[[int], list[Call]]
    summary: Callable[[object], dict]
    trials: Callable[[Call, object], int]
    problems: Callable[[Call, object], list[str]]
    cross_check: Callable[[list[Call]], list[str]]
    warmup: Callable[[], None]
    reference: str  # the hostspeed kernel that imitates the job's dominant work


def _warm_reach():
    for name, p, stat in REACH_PLANS:
        montecarlo.run_plan(TrialPlan(ModelId(name, p), 10, 1, 1, stat))


def _warm_sweep():
    for model, _ in SWEEP_BISECTIONS:
        montecarlo.bisect_pc(model, radius=10, bracket=(0.05, 0.95),
                             trials_per_probe=64, master_seed=1, max_probes=3)


def _warm_census():
    for p, dual in CENSUS_RUNS:
        montecarlo.classify_shapes(ModelId("NE-SW", p), 10, 1, master_seed=1,
                                   verify_dual=dual, margin=10)


WORKLOADS = {w.name: w for w in (
    Workload(
        "reach-generic",
        {"entry": "run_plan", "radius": REACH_RADIUS, "plans": REACH_PLANS,
         "blocks": REACH_BLOCKS, "trials_per_call": REACH_TRIALS},
        _reach_job, _record_summary, lambda call, rec: rec.trials,
        _record_problems, _reach_cross_check, _warm_reach, "grid"),
    Workload(
        "sweep-bisect",
        {"entry": "bisect_pc", "radius": SWEEP_RADIUS, "bisections": SWEEP_BISECTIONS,
         "trials_per_probe": SWEEP_TRIALS_PER_PROBE},
        _sweep_job, _bisect_summary,
        lambda call, res: res.n_probes * call.kwargs["trials_per_probe"],
        _bisect_problems, _sweep_cross_check, _warm_sweep, "stream"),
    Workload(
        "shape-census",
        {"entry": "classify_shapes", "radius": CENSUS_RADIUS, "margin": CENSUS_MARGIN,
         "runs": CENSUS_RUNS, "blocks": CENSUS_BLOCKS, "trials_per_call": CENSUS_TRIALS},
        _census_job, _census_summary,
        lambda call, census: census.trials,
        _census_problems, _census_cross_check, _warm_census, "grid"),
)}
