"""Monte Carlo estimation and statistical verification.

Design rules baked in:

* "Infinite" is proxied by contact with the window's edge ring; every
  estimate therefore depends on the window radius M and callers are
  expected to vary M.
* Trials are pure functions of (master seed, trial index): the per-trial
  environment seed is spawn_seed(master_seed, trial), and the counter-based
  site hash makes nested windows agree, so estimates are bit-identical for
  any batch size.
* Every statistical verifier returns z-scores or confidence material,
  never a bare pass/fail.
* Proportion estimates carry se = sqrt(p(1-p)/n); sample means carry the
  usual sd/sqrt(n).

The transition-law verifiers (width chain, edge walks, excursions) sample
the row mechanics lazily: a row's relevant sites are i.i.d. atoms, and the
run lengths they induce are geometric, drawn from a seeded generator.
They never materialize a window, which keeps a hundred thousand samples
in the second range.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import rng
from .bitgrid import (edge_mask, move_masks, mutual_stats, pack_rows, reach_batch,
                      reversed_moves)
from .clusters import classify_b_shape
from .directions import BIT_E, BIT_N, N_MASK, NE_MASK, SW_MASK, SWE_MASK
from .env import EnvironmentGrid, Window, sample_environment, sample_masks
from .errors import DimensionError, ValidationError
from .measure import SupportMeasure
from .models import ModelId, canonical_name, measure_for, require_p

REACH_C = "reach_C"
REACH_B = "reach_B"
REACH_M = "reach_M"
SIZE_M = "size_M"
REACH_OTSP = "reach_otsp"  # the oriented triangular lattice, simulated directly
_STATISTICS = (REACH_C, REACH_B, REACH_M, SIZE_M)

_PROPORTIONS = (REACH_C, REACH_B, REACH_M, REACH_OTSP)

# Models whose boundary-reach statistic is monotone in p; only these may be
# bisected.  The two-sided models get survival curves instead.
BISECTABLE = ("NE-.", "SWE-.", "NSEW-.", "otsp")


@dataclass(frozen=True)
class TrialPlan:
    model: ModelId | SupportMeasure
    radius: int
    trials: int
    master_seed: int
    statistic: str | Callable[[EnvironmentGrid], float] = REACH_C

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError("need at least one trial")
        if self.radius < 1:
            raise ValidationError("window radius must be >= 1")
        if isinstance(self.statistic, str) and self.statistic not in _STATISTICS:
            raise ValidationError(
                f"statistic must be one of {_STATISTICS} or a callable"
            )

    @property
    def measure(self) -> SupportMeasure:
        if isinstance(self.model, ModelId):
            return measure_for(self.model)
        return self.model

    @property
    def model_label(self) -> str:
        if isinstance(self.model, ModelId):
            return self.model.name
        return "raw"

    @property
    def p_label(self) -> float:
        if isinstance(self.model, ModelId):
            return self.model.p
        return float("nan")


@dataclass(frozen=True)
class EstimateRecord:
    model: str
    p: float
    radius: int
    trials: int
    statistic: str
    estimate: float
    se: float
    seed: int
    seconds: float

    def csv_row(self) -> list:
        return [self.model, repr(self.p), self.radius, self.trials,
                self.statistic, repr(self.estimate), repr(self.se),
                self.seed, f"{self.seconds:.3f}"]

    def as_dict(self) -> dict:
        return {
            "model": self.model, "p": self.p, "M": self.radius,
            "trials": self.trials, "statistic": self.statistic,
            "estimate": self.estimate, "se": self.se,
            "seed": self.seed, "seconds": self.seconds,
        }


CSV_HEADER = ["model", "p", "M", "trials", "statistic", "estimate", "se",
              "seed", "seconds"]


def write_records_csv(records: Iterable[EstimateRecord], fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerow(rec.csv_row())


def write_records_jsonl(records: Iterable[EstimateRecord], fh) -> None:
    for rec in records:
        fh.write(json.dumps(rec.as_dict(), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# One lazy, bit-packed row sweep for the oriented models
# ---------------------------------------------------------------------------
#
# When every atom is a subset of {E, N}, and on the oriented triangular
# lattice, reachability never leaves one quadrant and a single row sweep
# decides it.  The quadrant is taken in sweep order: the source is corner
# (row 0, column 0) and every move goes right, up, or (otsp) up-right.
# Row k is hashed only for the trials still alive when the sweep gets
# there: a draw is a pure hash of (seed, coords), so
# rng.atoms(seeds[:, None], (cols, k), ...) is row k of the full-grid draw,
# and a trial whose cluster dies after a few rows costs a few rows of hash.
# A row is a (B, nwords) uint64 bit set; its right gates close it in one
# carry pass (_row_propagate) and its up gates (plus, on otsp, a one-bit
# shift) carry it to the next row.  A trial leaves the sweep once its row
# is empty or meets the last column, and the sweep stops when none is left.

_NE_ORIENTED_MASKS = frozenset({0, BIT_E, BIT_N, NE_MASK})


def _is_ne_oriented(measure: SupportMeasure) -> bool:
    return measure.d == 2 and measure.support() <= _NE_ORIENTED_MASKS


def _row_propagate(row: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """Close packed rows under their gates: R[i] = row[i] | (R[i-1] & gate[i-1]).

    row and gate are (B, nwords) uint64 with bit i of a row in bit i % 64
    of word i // 64; gate bit i opens the step from i to i + 1.  Adding
    gate to row & gate runs a carry from each reached gate to the end of
    its run of gates, and ^ gate leaves that stretch set; the carry passes
    from word to word as in a long addition.  An open gate at the last
    column of a row carries past it; the sweep drops a row once it reaches
    that column, so those bits are never read.
    """
    out = np.empty_like(row)
    fed = row & gate
    carry = np.zeros(row.shape[0], dtype=np.uint64)
    for w in range(row.shape[1]):
        g = gate[:, w]
        s = fed[:, w] + g
        over = s < g
        s += carry
        over |= s < carry
        out[:, w] = row[:, w] | (s ^ g)
        carry = over.astype(np.uint64)
    return out


def _lazy_sweep(master_seed: int, trials: int, batch: int, n: int,
                gates: Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]],
                up_at_source: bool, diagonal: bool) -> np.ndarray:
    """Edge contact of the corner's cluster on an n x n quadrant, per trial.

    Trials run batch at a time.  gates(seeds, k) draws row k of the trials
    with the given seeds and returns its packed (up, right) gates: right
    bit i opens the step from column i to i + 1 in row k; up bit i opens
    the step from column i of row k to row k + 1 (up_at_source) or into
    column i of row k from row k - 1 (otherwise), and with diagonal the up
    gate also opens the step to column i + 1 of row k + 1.  Contact is
    meeting the last column or the last row.
    """
    word, bit = divmod(n - 1, 64)
    last = np.uint64(1 << bit)
    out = np.zeros(trials, dtype=bool)
    for lo in range(0, trials, batch):
        live = np.arange(lo, min(lo + batch, trials), dtype=np.int64)
        seeds = rng.hash_parts(master_seed, (live,))
        row = np.zeros((len(live), word + 1), dtype=np.uint64)
        row[:, 0] = 1
        for k in range(n):
            up, right = gates(seeds, k)
            if k:
                row &= up_prev if up_at_source else up
                if diagonal:  # bit n - 1 of a live row is clear, so nothing falls off
                    shifted = row << np.uint64(1)
                    shifted[:, 1:] |= row[:, :-1] >> np.uint64(63)
                    row |= shifted
            row = _row_propagate(row, right)
            alive = row.any(axis=1)
            if k == n - 1:
                out[live] = alive
                break
            hit = (row[:, word] & last) != 0
            out[live[hit]] = True
            keep = alive & ~hit
            if not keep.any():
                break
            live, seeds, row, up_prev = live[keep], seeds[keep], row[keep], up[keep]
    return out


def _oriented_reach_trials(measure: SupportMeasure, radius: int, trials: int,
                           master_seed: int, backward: bool,
                           origin: Optional[int] = None,
                           batch: int = 256) -> np.ndarray:
    """Edge contact of the forward (or backward) cluster of a NE-oriented model.

    The forward cluster lives in the quadrant [0, radius]^2, the backward
    one in [-radius, 0]^2.  Backward reach is swept in the reflected
    coordinates (-column, -row): there a gate sits at the destination, so
    an E gate moves one column back and a row's N gate opens the step into
    it.  origin, when given, replaces the origin's draw.  batch bounds the
    trials hashed per row.
    """
    n = radius + 1
    sign = -1 if backward else 1
    xs = sign * np.arange(n, dtype=np.int64)
    has_e = (measure.masks & BIT_E) != 0
    has_n = (measure.masks & BIT_N) != 0

    def gates(seeds: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        drawn = rng.atoms(seeds[:, None], (xs, sign * k), measure.thresholds)
        e, up = has_e[drawn], has_n[drawn]
        if k == 0 and origin is not None:
            e[:, 0], up[:, 0] = bool(origin & BIT_E), bool(origin & BIT_N)
        if backward:
            e[:, :-1] = e[:, 1:]
        return pack_rows(up), pack_rows(e)

    return _lazy_sweep(master_seed, trials, batch, n, gates,
                       up_at_source=not backward, diagonal=False)


# Trials per reach_batch call on the generic path.  Trials are sampled and
# packed one at a time and only their packed masks are stacked, so a chunk
# costs 4 * REACH_CHUNK packed grids of memory, not REACH_CHUNK hashed windows.
REACH_CHUNK = 16


def _packed_chunks(measure: SupportMeasure, window: Window, master_seed: int,
                   trials: int, origin: Optional[int] = None):
    """Yield (4, B, ny, nwords) move masks of the trials, REACH_CHUNK at a time."""
    ix, iy = -window.lo[0], -window.lo[1]
    for lo in range(0, trials, REACH_CHUNK):
        masks = []
        for t in range(lo, min(lo + REACH_CHUNK, trials)):
            arrows = sample_masks(measure, window, rng.spawn_seed(master_seed, t))
            if origin is not None:
                arrows[ix, iy] = origin
            masks.append(move_masks(arrows))
        yield np.stack(masks, axis=1)


def _packed_values(measure: SupportMeasure, radius: int, trials: int, master_seed: int,
                   statistic: str, origin: Optional[int] = None) -> np.ndarray:
    """Named statistic of every trial, one reach_batch call per chunk.

    origin, when given, replaces the origin's draw.
    """
    window = Window.centered(radius, 2)
    edge = edge_mask(*window.shape)
    values = []
    for moves in _packed_chunks(measure, window, master_seed, trials, origin):
        if statistic in (REACH_C, REACH_B):
            if statistic == REACH_B:
                moves = reversed_moves(moves)
            values.append(reach_batch(moves, radius, radius, edge, stop_at_edge=True)[1])
        else:
            sizes, touched = mutual_stats(moves, radius, radius, edge)
            values.append(touched if statistic == REACH_M else sizes)
    return np.concatenate(values).astype(np.float64)


def _statistic_values(measure: SupportMeasure, radius: int, trials: int,
                      master_seed: int, statistic: str,
                      live_origin: bool = False) -> np.ndarray:
    """Per-trial values of a named statistic, on the simulator that fits it.

    A live origin carries every arrow of the support, the usual survival
    convention for oriented growth.
    """
    origin = int(np.bitwise_or.reduce(measure.masks)) if live_origin else None
    if statistic in (REACH_C, REACH_B) and _is_ne_oriented(measure):
        return _oriented_reach_trials(measure, radius, trials, master_seed,
                                      statistic == REACH_B, origin)
    return _packed_values(measure, radius, trials, master_seed, statistic, origin)


def _mean_se(values: np.ndarray) -> float:
    """Standard error of a sample mean; 0.0 for a single value."""
    n = len(values)
    return float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0


def _record(model: str, p: float, radius: int, statistic: str, values: np.ndarray,
            seed: int, t0: float) -> EstimateRecord:
    """Mean of the per-trial values with its standard error."""
    trials = len(values)
    est = float(values.mean())
    se = (math.sqrt(max(est * (1.0 - est), 0.0) / trials) if statistic in _PROPORTIONS
          else _mean_se(values))
    return EstimateRecord(model, p, radius, trials, statistic, est, se, seed,
                          time.perf_counter() - t0)


def run_plan(plan: TrialPlan) -> EstimateRecord:
    """Run every trial of the plan and aggregate deterministically.

    Results are reduced in trial-index order whatever the batch size, so
    a plan is a reproducible object: same plan, same record (modulo the
    wall-time field).
    """
    measure = plan.measure
    if measure.d != 2:
        raise DimensionError("the Monte Carlo engine runs on d=2 windows")
    t0 = time.perf_counter()
    if callable(plan.statistic):
        window = Window.centered(plan.radius, 2)
        model = plan.model if isinstance(plan.model, ModelId) else None
        values = np.empty(plan.trials, dtype=np.float64)
        for t in range(plan.trials):
            seed = rng.spawn_seed(plan.master_seed, t)
            values[t] = plan.statistic(EnvironmentGrid(
                window, sample_masks(measure, window, seed), measure, model, seed))
        stat_name = "custom"
    else:
        values = _statistic_values(measure, plan.radius, plan.trials, plan.master_seed,
                                   plan.statistic)
        stat_name = plan.statistic
    return _record(plan.model_label, plan.p_label, plan.radius, stat_name, values,
                   plan.master_seed, t0)


# ---------------------------------------------------------------------------
# The forward/backward identity for site-percolation-type models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    theta_plus: EstimateRecord
    theta_minus: EstimateRecord
    p: float

    @property
    def lhs(self) -> float:
        return self.theta_plus.estimate

    @property
    def rhs(self) -> float:
        return self.p * self.theta_minus.estimate

    @property
    def pooled_se(self) -> float:
        return math.sqrt(self.theta_plus.se**2 + (self.p * self.theta_minus.se) ** 2)

    @property
    def z(self) -> float:
        se = self.pooled_se
        return (self.lhs - self.rhs) / se if se > 0 else float("inf")


def check_theta_identity(model: ModelId, radius: int, trials: int,
                         master_seed: int = 0) -> IdentityReport:
    """Compare the forward-reach estimate against p times the backward one.

    Valid for models whose second atom is empty, and exact only as M grows.
    At finite M the identity holds one way: if the origin's backward
    cluster meets the edge ring in an environment, its forward cluster
    meets it in the point-reflected environment with a live origin, so
    theta_plus >= p * theta_minus.  Equality fails at finite M: on NE-.
    at M=1, theta_plus = p but p * theta_minus = 2p^2 - p^3.  The
    gap shrinks with M (at p=0.75: 0.046 at M=1, about 0.004 at M=10).
    Independent seed streams feed the two estimates, making the pooled
    standard error honest.
    """
    measure = measure_for(model)
    if 0 not in measure.support() or len(measure.atoms) != 2:
        raise ValidationError("the identity needs a two-valued model with an empty atom")
    plus = run_plan(TrialPlan(model, radius, trials,
                              rng.spawn_seed(master_seed, 1), REACH_C))
    minus = run_plan(TrialPlan(model, radius, trials,
                               rng.spawn_seed(master_seed, 2), REACH_B))
    return IdentityReport(plus, minus, model.p)


# ---------------------------------------------------------------------------
# Direct simulation of the dual triangular lattice
# ---------------------------------------------------------------------------

def _otsp_reach_trials(p: float, radius: int, trials: int, master_seed: int,
                       origin_open: bool = False, batch: int = 256) -> np.ndarray:
    """Open-site clusters of the three-move triangular lattice reaching the edge.

    Sites are open with probability p; an open site points to its west,
    north, and northwest neighbors, so the cluster lives in the origin's
    northwest quadrant and the row sweep runs on columns x = -i with the
    open sites as gates and a diagonal step.  Closed sites can be reached
    but not left, matching the site-percolation convention.  batch bounds
    the trials hashed per row.
    """
    n = radius + 1
    xs = -np.arange(n, dtype=np.int64)  # origin at column 0, west is +1
    thresholds = rng.thresholds((p, 1.0 - p))

    def gates(seeds: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        is_open = rng.atoms(seeds[:, None], (xs, k), thresholds) == 0
        if k == 0 and origin_open:
            is_open[:, 0] = True
        gate = pack_rows(is_open)
        return gate, gate

    return _lazy_sweep(master_seed, trials, batch, n, gates,
                       up_at_source=True, diagonal=True)


def otsp_reach_estimate(p: float, radius: int, trials: int,
                        master_seed: int = 0,
                        origin_open: bool = False) -> EstimateRecord:
    require_p(p)
    t0 = time.perf_counter()
    hits = _otsp_reach_trials(p, radius, trials, master_seed,
                              origin_open=origin_open)
    return _record("otsp", p, radius, REACH_OTSP, hits, master_seed, t0)


# ---------------------------------------------------------------------------
# Finite-window pseudo-critical points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BisectResult:
    p_hat: float
    bracket: tuple[float, float]
    probes: tuple[tuple[float, float, float], ...]  # (p, estimate, se)

    @property
    def n_probes(self) -> int:
        return len(self.probes)


def bisect_pc(
    model: str | Callable[[float], float],
    radius: int,
    target: float = 0.5,
    tol: float = 0.005,
    trials_per_probe: int = 2000,
    max_probes: int = 25,
    bracket: tuple[float, float] = (0.05, 0.95),
    master_seed: int = 0,
) -> BisectResult:
    """Locate the p where the boundary-reach probability crosses the target.

    Only statistics monotone in p make sense here, so named models are
    restricted to an allowlist (the monotone percolation family and the
    direct triangular lattice); non-monotone models should be charted with
    survival_curve instead.  A callable estimator p -> estimate is trusted
    as-is.

    Probes for named models condition on a live origin (it carries every
    arrow of the support), the usual survival convention for oriented growth:
    without it the dead-origin mass inflates the crossing point by a factor
    the finite-size literature numbers do not carry.
    """
    probes: list[tuple[float, float, float]] = []

    if callable(model):
        def probe(p: float, idx: int) -> float:
            est = float(model(p))
            probes.append((p, est, 0.0))
            return est
    else:
        direct_otsp = model.lower() == "otsp"
        if not direct_otsp:
            name = canonical_name(model)
            if name not in BISECTABLE:
                raise ValidationError(
                    f"{name!r} is not on the monotone allowlist {BISECTABLE};"
                    " chart a survival curve instead"
                )

        def probe(p: float, idx: int) -> float:
            seed = rng.spawn_seed(master_seed, idx)
            if direct_otsp:
                rec = otsp_reach_estimate(p, radius, trials_per_probe, seed,
                                          origin_open=True)
            else:
                t0 = time.perf_counter()
                vals = _statistic_values(measure_for(ModelId(name, p)), radius,
                                         trials_per_probe, seed, REACH_C, live_origin=True)
                rec = _record(name, p, radius, REACH_C, vals, seed, t0)
            probes.append((p, rec.estimate, rec.se))
            return rec.estimate

    lo, hi = bracket
    if not 0.0 < lo < hi < 1.0:
        raise ValidationError("bracket must satisfy 0 < lo < hi < 1")
    if probe(lo, 0) >= target:
        raise ValidationError(f"estimate at p={lo} already above target; not bracketing")
    if probe(hi, 1) < target:
        raise ValidationError(f"estimate at p={hi} below target; not bracketing")
    idx = 2
    while hi - lo > tol and idx < max_probes:
        mid = 0.5 * (lo + hi)
        if probe(mid, idx) >= target:
            hi = mid
        else:
            lo = mid
        idx += 1
    return BisectResult(0.5 * (lo + hi), (lo, hi), tuple(probes))


def survival_curve(
    model_name: str,
    p_values: Sequence[float],
    radius: int,
    trials: int,
    statistic: str = REACH_C,
    master_seed: int = 0,
) -> list[EstimateRecord]:
    """Estimates along a strictly increasing grid of p values."""
    ps = list(p_values)
    if any(b <= a for a, b in zip(ps, ps[1:])) or not ps:
        raise ValidationError("p grid must be nonempty and strictly increasing")
    name = canonical_name(model_name)
    out = []
    for i, p in enumerate(ps):
        plan = TrialPlan(ModelId(name, p), radius, trials,
                         rng.spawn_seed(master_seed, i), statistic)
        out.append(run_plan(plan))
    return out


# ---------------------------------------------------------------------------
# Transition-law verifiers
# ---------------------------------------------------------------------------

def _require_two(n: int, what: str) -> None:
    """A sample standard error needs two values; one would give nan."""
    if n < 2:
        raise ValidationError(f"need at least 2 {what} for a standard error, got {n}")


def _z(freq: float, prob: float, n: int) -> float:
    se = math.sqrt(prob * (1.0 - prob) / n)
    return (freq - prob) / se if se > 0 else float("inf")


@dataclass(frozen=True)
class DnTransitionReport:
    p: float
    samples_per_k: int
    rows: tuple[dict, ...]

    @property
    def max_abs_z(self) -> float:
        return max(abs(row[key]) for row in self.rows
                   for key in ("z_die", "z_stay", "z_grow"))


def dn_transition_test(p: float, samples: int, k_max: int = 6,
                       master_seed: int = 0) -> DnTransitionReport:
    """Empirical width-chain transitions of the horizontal/up model.

    For each width k: the next row dies when all k core sites are
    horizontal (probability p^k); it keeps its width when some core site
    points up but neither adjacent site extends it ((1-p)^2 (1-p^k)); it
    grows otherwise ((1-p^k) p (2-p)).  Core sites are Bernoulli draws and
    the two extension runs are geometric run lengths of horizontal sites.
    """
    from .bounds import dn_transition_probs

    require_p(p)
    gen = np.random.default_rng(rng.spawn_seed(master_seed, 0xD7))
    rows = []
    for k in range(1, k_max + 1):
        core_ew = gen.random((samples, k)) < p
        die = core_ew.all(axis=1)
        survive = ~die
        ext_left = gen.geometric(1.0 - p, samples) - 1
        ext_right = gen.geometric(1.0 - p, samples) - 1
        stay = survive & (ext_left == 0) & (ext_right == 0)
        grow = survive & ((ext_left > 0) | (ext_right > 0))
        th = dn_transition_probs(k, p)
        f_die = float(die.mean())
        f_stay = float(stay.mean())
        f_grow = float(grow.mean())
        rows.append({
            "k": k, "n": samples,
            "f_die": f_die, "p_die": th["die"], "z_die": _z(f_die, th["die"], samples),
            "f_stay": f_stay, "p_stay": th["stay"], "z_stay": _z(f_stay, th["stay"], samples),
            "f_grow": f_grow, "p_grow": th["grow"], "z_grow": _z(f_grow, th["grow"], samples),
        })
    return DnTransitionReport(p, samples, tuple(rows))


@dataclass(frozen=True)
class LuWalkReport:
    p: float
    samples: int
    mean_dl: float
    se_dl: float
    drift_dl: float
    mean_du: float
    se_du: float
    drift_du: float
    l_cells: tuple[dict, ...]
    u_cells: tuple[dict, ...]

    @property
    def max_abs_z(self) -> float:
        zs = [abs(c["z"]) for c in self.l_cells + self.u_cells]
        zs.append(abs((self.mean_dl - self.drift_dl) / self.se_dl))
        zs.append(abs((self.mean_du - self.drift_du) / self.se_du))
        return max(zs)


def lu_walk_test(p: float, samples: int, master_seed: int = 0,
                 j_range: int = 5) -> LuWalkReport:
    """Empirical one-step laws of the edge walks of the NE-or-west model.

    The upper edge jumps +j when exactly j west sites separate it from the
    next NE site (p(1-p)^j, j >= 0).  The lower edge extends left through a
    run of NE sites (p^(j+1)(1-p) for -j <= 0) or scans right for the first
    NE site (p(1-p)^j for j >= 1).  Run lengths are geometric draws; the
    NE-or-west Bernoulli at the edge site is explicit.
    """
    from .bounds import drift_formulas, lu_step_prob

    _require_two(samples, "samples")
    gen = np.random.default_rng(rng.spawn_seed(master_seed, 0x10))
    at_l_is_ne = gen.random(samples) < p
    ne_run = gen.geometric(1.0 - p, samples) - 1      # extra NE sites going left
    w_run = gen.geometric(p, samples)                 # west sites + the NE stop, >= 1
    dl = np.where(at_l_is_ne, -ne_run, w_run)
    du = gen.geometric(p, samples) - 1                # west run before the next NE

    drifts = drift_formulas("NE-W", p)
    l_cells = []
    for j in range(-j_range, j_range + 1):
        freq = float((dl == j).mean())
        prob = lu_step_prob("L", j, p)
        l_cells.append({"j": j, "freq": freq, "prob": prob,
                        "z": _z(freq, prob, samples)})
    u_cells = []
    for j in range(0, j_range + 2):
        freq = float((du == j).mean())
        prob = lu_step_prob("U", j, p)
        u_cells.append({"j": j, "freq": freq, "prob": prob,
                        "z": _z(freq, prob, samples)})
    return LuWalkReport(
        p, samples,
        float(dl.mean()), float(dl.std(ddof=1) / math.sqrt(samples)), drifts["delta_L0"],
        float(du.mean()), float(du.std(ddof=1) / math.sqrt(samples)), drifts["delta_U0"],
        tuple(l_cells), tuple(u_cells),
    )


@dataclass(frozen=True)
class ExcursionReport:
    p: float
    samples: int
    mean: float
    se: float
    theory: float

    @property
    def z(self) -> float:
        return (self.mean - self.theory) / self.se


def seoa_excursion_test(p: float, samples: int, master_seed: int = 0) -> ExcursionReport:
    """Vertical excursions of the SE-on-average path, lazily sampled.

    A fresh column starts with a three-arrow site (probability p) and then
    descends through its run (excursion -(run length)), or starts with an
    up run that the path climbs (+run length).
    """
    from .bounds import drift_formulas

    _require_two(samples, "samples")
    gen = np.random.default_rng(rng.spawn_seed(master_seed, 0x5E0A))
    starts_swe = gen.random(samples) < p
    down = gen.geometric(1.0 - p, samples) - 1  # extra three-arrow sites below
    up = gen.geometric(p, samples)              # up sites climbed, >= 1
    w = np.where(starts_swe, -down, up)
    theory = drift_formulas("SWE-N", p)["seoa_mean_excursion"]
    return ExcursionReport(p, samples, float(w.mean()),
                           float(w.std(ddof=1) / math.sqrt(samples)), theory)


def w_walk_drift_test(p: float, samples: int, master_seed: int = 0) -> ExcursionReport:
    """Down-step column increments of the SE path in the orthant model."""
    from .bounds import drift_formulas

    _require_two(samples, "samples")
    gen = np.random.default_rng(rng.spawn_seed(master_seed, 0xDE1F))
    dw = gen.geometric(1.0 - p, samples) - 1   # NE sites passed before the SW drop
    theory = drift_formulas("NE-SW", p)["delta_W"]
    return ExcursionReport(p, samples, float(dw.mean()),
                           float(dw.std(ddof=1) / math.sqrt(samples)), theory)


# ---------------------------------------------------------------------------
# Martingale level counts for the up-or-right model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MartingaleReport:
    p: float
    radius: int
    trials: int
    means: tuple[float, ...]
    diff_ses: tuple[float, ...]      # se of X_{n+1} - X_n, paired
    diff_zs: tuple[float, ...]

    @property
    def max_abs_z(self) -> float:
        return max(abs(z) for z in self.diff_zs)


def _up_or_right_fronts(p: float, radius: int, trials: int, master_seed: int):
    """Yield the antidiagonal fronts of the sites whose path reaches the origin.

    Front n (n = 0 .. 2*radius) is a (trials, n+1) boolean array over the
    sites (-(n-i), -i), i = 0..n, indexed by their second offset; each site
    steps up (to index i-1 of front n-1) or right (to index i).  Window
    masking keeps only sites with both coordinates in [-radius, 0], so
    fronts n <= radius do not depend on the radius.
    """
    t_idx = np.arange(trials, dtype=np.int64)[:, None]
    thresholds = rng.thresholds((p, 1.0 - p))
    b = np.ones((trials, 1), dtype=bool)
    yield b
    for n in range(1, 2 * radius + 1):
        i = np.arange(n + 1, dtype=np.int64)[None, :]
        up = rng.atoms(master_seed, (t_idx, np.int64(n), i), thresholds) == 0
        prev_up = np.zeros((trials, n + 1), dtype=bool)
        prev_up[:, 1:] = b
        prev_right = np.zeros((trials, n + 1), dtype=bool)
        prev_right[:, :n] = b
        b = np.where(up, prev_up, prev_right)
        if n > radius:
            b[:, :n - radius] = False   # first coordinate below -radius
            b[:, radius + 1:] = False   # second coordinate below -radius
        yield b


def martingale_test(p: float, radius: int, trials: int, n_levels: int = 30,
                    master_seed: int = 0) -> MartingaleReport:
    """Successive means of X_n must agree: the count is a martingale.

    X_n counts sites on the antidiagonal at distance n whose unique
    up-or-right path passes through the origin.  Differences are paired
    per trial, so the reported z is mean(X_{n+1}-X_n) / se(diff).
    """
    require_p(p)
    _require_two(trials, "trials")
    if n_levels >= radius:
        raise ValidationError("keep n_levels < radius so no level is truncated")
    fronts = _up_or_right_fronts(p, radius, trials, master_seed)
    counts = np.array([front.sum(axis=1) for front in itertools.islice(fronts, n_levels + 1)])
    means = counts.mean(axis=1)
    diffs = counts[1:] - counts[:-1]
    ses = diffs.std(axis=1, ddof=1) / math.sqrt(trials)
    mean_diffs = diffs.mean(axis=1)
    # a difference with no spread is exact: its z is 0 if it is 0, infinite if not
    exact = np.where(mean_diffs == 0, 0.0, np.copysign(np.inf, mean_diffs))
    zs = np.divide(mean_diffs, ses, out=exact, where=ses > 0)
    return MartingaleReport(p, radius, trials, tuple(map(float, means)),
                            tuple(map(float, ses)), tuple(map(float, zs)))


def theta_minus_curve(p: float, radii: Sequence[int], trials: int,
                      master_seed: int = 0) -> list[EstimateRecord]:
    """Backward-reach estimates of the up-or-right model over nested windows.

    The site draws are keyed on coordinates alone, so the windows are
    nested realizations of one environment and the estimates are monotone
    trial-by-trial: reaching the larger edge implies reaching the smaller.
    """
    require_p(p)
    if any(radius < 1 for radius in radii):
        raise ValidationError("window radius must be >= 1")
    out = []
    for radius in radii:
        t0 = time.perf_counter()
        touched = np.zeros(trials, dtype=bool)
        for n, front in enumerate(_up_or_right_fronts(p, radius, trials, master_seed)):
            if n >= radius:
                # index radius is second coordinate -radius; n - radius is first
                touched |= front[:, radius] | front[:, n - radius]
            if not front.any():
                break
        out.append(_record("N-E", p, radius, REACH_B, touched, master_seed, t0))
    return out


# ---------------------------------------------------------------------------
# Communicating-cluster size statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MSizeRow:
    radius: int
    trials: int
    mean_size: float
    se_size: float
    median_size: float
    q90_size: float
    boundary_rate: float


def m_size_stats(model: ModelId, radii: Sequence[int], trials: int,
                 master_seed: int = 0) -> list[MSizeRow]:
    """Size and edge-contact summaries of the communicating cluster per radius.

    The same trial seeds drive every radius, and site draws key on absolute
    coordinates, so rows differ only through the window: the across-radius
    stability check sees nested realizations, not fresh noise.  The
    boundary rate is contact of the communicating set itself with the edge
    ring (not of its two factors).
    """
    measure = measure_for(model)
    rows = []
    for radius in radii:
        window = Window.centered(radius, 2)
        edge = edge_mask(*window.shape)
        chunks = [mutual_stats(moves, radius, radius, edge)
                  for moves in _packed_chunks(measure, window, master_seed, trials)]
        sizes = np.concatenate([c[0] for c in chunks]).astype(np.float64)
        touch = np.concatenate([c[1] for c in chunks])
        rows.append(MSizeRow(
            radius, trials, float(sizes.mean()), _mean_se(sizes),
            float(np.median(sizes)), float(np.quantile(sizes, 0.9)),
            float(touch.mean()),
        ))
    return rows


# ---------------------------------------------------------------------------
# Shape classification over seeds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeCensus:
    model: str
    p: float
    radius: int
    trials: int
    counts: dict[str, int]
    reaching: int
    blocked_above_monotone: int
    blocked_above_verified: int

    def fraction_of_reaching(self, shape: str) -> float:
        return self.counts.get(shape, 0) / self.reaching if self.reaching else float("nan")


def classify_shapes(model: ModelId, radius: int, trials: int,
                    master_seed: int = 0, verify_dual: bool = False,
                    margin: Optional[int] = None) -> ShapeCensus:
    """Backward-shape census of the origin over seeded realizations.

    Counts are keyed by shape; reaching counts realizations whose cluster
    meets the classification window's edge ring.  Environments are
    sampled with a margin around the classification window (default equal
    to the radius) so membership near the core's edge is not truncated.
    With verify_dual, BlockedAbove reports are additionally pushed through
    the boundary-sequence verifier of the matching dual lattice.
    """
    from . import bounds as bounds_mod
    from .env import subgrid

    if margin is None:
        margin = radius
    inner = Window.centered(radius, 2)
    outer = Window.centered(radius + margin, 2)
    counts: dict[str, int] = {}
    reaching = 0
    mono = 0
    verified = 0
    support = measure_for(model).support()
    lattice = None
    if support == frozenset({NE_MASK, SW_MASK}):
        lattice = bounds_mod.OTSP
    elif support == frozenset({SWE_MASK, N_MASK}):
        lattice = bounds_mod.FSOSP
    for t in range(trials):
        env = sample_environment(model, outer, rng.spawn_seed(master_seed, t))
        report = classify_b_shape(env, (0, 0), inner=inner)
        counts[report.shape] = counts.get(report.shape, 0) + 1
        if report.touches_boundary:
            reaching += 1
        if report.shape == "BlockedAbove":
            if report.blocking.monotone_decreasing:
                mono += 1
            if verify_dual and lattice is not None:
                ok, _ = bounds_mod.verify_duality(subgrid(env, inner),
                                                  report.blocking, lattice)
                verified += bool(ok)
    return ShapeCensus(model.name, model.p, radius, trials, counts, reaching,
                       mono, verified)


# ---------------------------------------------------------------------------
# Crossing of the SE path against the up-left-right cluster edge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WnCrossingReport:
    p: float
    trials: int
    levels: int
    start_gap: int
    crossing_rate: float
    w_cells: tuple[dict, ...]
    mean_dw: float


def wn_crossing_test(p: float, trials: int, levels: int, start_gap: int = 10,
                     master_seed: int = 0, j_max: int = 8) -> WnCrossingReport:
    """Race the SE path's down-step columns against the cluster's lower edge.

    Both processes read the same lazily sampled rows of an orthant-model
    environment (shared draws matter when they come close).  The SE column
    advances +j with probability p^j (1-p); the edge follows the
    lower-edge walk.  Crossing is the first level where the SE column is
    at or right of the edge.
    """
    require_p(p)
    crossings = 0
    dw_counts: dict[int, int] = {}
    dw_total = 0
    dw_sum = 0
    thresholds = rng.thresholds((p, 1.0 - p))
    atom = rng.atom_one
    for t in range(trials):
        w = -start_gap
        l = 0
        crossed = False
        for level in range(1, levels + 1):
            row: dict[int, bool] = {}

            def is_ne(col: int, _t=t, _lvl=level, _row=row) -> bool:
                v = _row.get(col)
                if v is None:
                    v = atom(thresholds, master_seed, _t, _lvl, col) == 0
                    _row[col] = v
                return v

            # SE path: walk right through NE sites, drop at the first SW site
            col = w
            while is_ne(col):
                col += 1
            dw = col - w
            w = col
            dw_counts[dw] = dw_counts.get(dw, 0) + 1
            dw_sum += dw
            dw_total += 1
            # lower edge: extend left through NE sites, else scan right
            if is_ne(l):
                col = l
                while is_ne(col - 1):
                    col -= 1
                l = col
            else:
                col = l + 1
                while not is_ne(col):
                    col += 1
                l = col
            if w >= l:
                crossed = True
                break
        crossings += crossed
    from .bounds import w_step_prob

    cells = []
    for j in range(j_max + 1):
        freq = dw_counts.get(j, 0) / dw_total if dw_total else float("nan")
        prob = w_step_prob(j, p)
        cells.append({"j": j, "freq": freq, "prob": prob,
                      "z": _z(freq, prob, dw_total)})
    return WnCrossingReport(p, trials, levels, start_gap, crossings / trials,
                            tuple(cells), dw_sum / dw_total if dw_total else float("nan"))
