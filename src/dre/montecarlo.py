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
from functools import cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import rng
from .bitgrid import (CHECK_EVERY, atom_moves, atom_plane, edge_mask, mutual_stats,
                      pack_rows, reach_batch, reversed_moves)
# the census runs classify_b_shape's two halves, not classify_b_shape; it
# stays importable here, where perfbench's tracer wraps it
from .clusters import b_shape_reach, b_shape_read, classify_b_shape
from .directions import BIT_E, BIT_N, BIT_S, BIT_W, NE_MASK
from .env import EnvironmentGrid, Window, masks_from_hash
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


def _require_run(radius: int, trials: int) -> None:
    """Reject fewer than one trial, or a run extent below 1.

    The extent is a window radius, or a walk's level or width count.
    """
    if trials < 1:
        raise ValidationError("need at least one trial")
    if radius < 1:
        raise ValidationError(f"window radius (or level/width count) must be >= 1, got {radius}")


def _require_radii(radii: Sequence[int], trials: int) -> None:
    """Reject an empty radius grid, or a run of any radius _require_run rejects."""
    if len(radii) == 0:
        raise ValidationError("radii must be nonempty")
    for radius in radii:
        _require_run(radius, trials)


@dataclass(frozen=True)
class TrialPlan:
    model: ModelId | SupportMeasure
    radius: int
    trials: int
    master_seed: int
    statistic: str = REACH_C

    def __post_init__(self):
        _require_run(self.radius, self.trials)
        if self.statistic not in _STATISTICS:
            raise ValidationError(f"statistic must be one of {_STATISTICS}")

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
# _statistic_values alone picks the sweep, oriented by _SWEEPS, or the
# generic path.  The sweep (_oriented_reach_trials) runs SWEEP_BATCH trials
# at a time in blocks of up to CHECK_EVERY rows.  A block's rows are drawn
# at once, for the trials still alive at its start, by the caller's row
# draw, which owns the key (the package rule, _site_draw, also draws the
# generic path): a draw is a pure hash of its key, so a trial whose cluster
# dies after a few rows costs a few blocks of hash.  The block's gates are
# packed straight from those hashes, one threshold plane at a time
# (_row_gates).  The batch's row, and each of its gate rows, is one Python
# int holding every trial's bits, with a guard column after each trial; its
# right gates close it in one bignum add (_row_propagate), whose carry the
# guards stop at each trial's end, and its up gates (plus, on otsp, a
# one-bit shift) carry it to the next row.  At a block's end the row is
# read back as (B, words) arrays: a trial leaves the sweep once its row is
# empty or has met the last column, and the sweep stops when none is left.
# Settling once a block changes no result: an empty row stays empty, and a
# meeting with the last column is kept however the row goes on.
#
# A block draws only a band of columns [lo, hi): no move goes left, so no
# row goes below the live rows' lowest bit, and a row gets past its highest
# bit only by a run of open E gates.  Gates outside the band are zero bits,
# so hi stops every run; it sits _BAND_MARGIN past the live rows' highest
# bit and never shrinks within a batch.  A block whose rows meet column
# hi - 1 may have been cut short, and is redone on a wider band.

_NE_ORIENTED_MASKS = frozenset({0, BIT_E, BIT_N, NE_MASK})


def _is_ne_oriented(measure: SupportMeasure) -> bool:
    return measure.d == 2 and measure.support() <= _NE_ORIENTED_MASKS


def _row_propagate(row: int, gate: int, valid: int) -> int:
    """Close int rows under their gates: R[i] = row[i] | (R[i-1] & gate[i-1]).

    Trial t's row holds column i in bit t * w + i, where w = 64 * gw and
    gw = (n + 64) // 64 words, so column n is a guard whose gate is always
    closed; gate bit i opens the step from i to i + 1, and valid has every
    trial's n columns.  Adding gate to row & gate runs a carry from each
    reached gate to the end of its run of gates, and ^ gate leaves that
    stretch set; the addition carries across words, and the guard stops the
    carry at the end of its trial.  An open gate at the last column carries
    into the guard, which & valid clears.
    """
    return (((row & gate) + gate) ^ gate | row) & valid


# A row draw is a pair (start, finish): start(live) gives the key state of
# the trials with indices live, one trial per entry of axis 0, and
# finish(state, ys, lo, hi) the (K, B, hi - lo) uint64 hashes of their rows
# ys, a list of K int row coordinates, over columns lo to hi - 1 of the
# draw's n.
RowDraw = tuple[Callable[[np.ndarray], np.ndarray],
                Callable[[np.ndarray, list, int, int], np.ndarray]]


def _site_draw(master_seed: int, trials: int, xs: np.ndarray) -> RowDraw:
    """The package rule on columns xs: site (x, y) of trial t keyed on
    (spawn_seed(master_seed, t), x, y).

    The hash chain's state after (seed, x) does not depend on the row, so
    start hashes it once, advanced for the next step, and finish completes
    columns lo to hi - 1 of it with a block of rows into hash and scratch
    buffers kept for the draw: a block it returns holds until the next
    finish.  The rows are a list of ints, linked in Python ints, or a
    (K, 1, 1) int64 array (see rng.finish).  The buffers are sized for
    every column, so a band that widens never reallocates them.
    """
    seeds = rng.hash_parts(master_seed, (np.arange(trials, dtype=np.int64),))
    # hash and scratch in one block: glibc gave two freed 323 KB blocks (a
    # generic R=100 window) back after each call, and they faulted in again
    buf = np.empty((2, 0), dtype=np.uint64)

    def start(live: np.ndarray) -> np.ndarray:
        return rng.advanced(rng.hash_parts(seeds[live][:, None], (xs,)))

    def finish(prefix: np.ndarray, ys, lo: int, hi: int) -> np.ndarray:
        nonlocal buf
        if buf.shape[1] < len(ys) * prefix.size:
            buf = np.empty((2, len(ys) * prefix.size), dtype=np.uint64)
        shape = (len(ys), len(prefix), hi - lo)
        h, scratch = buf[:, :math.prod(shape)].reshape((2,) + shape)
        return rng.finish(prefix[:, lo:hi], ys, h, scratch)

    return start, finish


def _up_or_right_hash(master_seed: int, trials: np.ndarray, xs, ys) -> np.ndarray:
    """Hashes of sites (x, y) of the trials, keyed on (master_seed, t, -(x + y), -y);
    the trials form a (B, 1) column, which xs and ys broadcast against."""
    return rng.hash_parts(master_seed, (trials[:, None], -(xs + ys), -ys))


def _trial_columns(b: int, n: int) -> list[int]:
    """Masks of columns 0 to n - 1, n - 1 and 0 of each trial on int rows of b
    trials (see _row_propagate); they repeat every trial, so the masks of
    fewer trials are these shifted right by the dropped trials' bits."""
    nbytes = 8 * ((n + 64) // 64)
    return [int.from_bytes(c.to_bytes(nbytes, "little") * b, "little")
            for c in ((1 << n) - 1, 1 << (n - 1), 1)]


def _row_gates(h: np.ndarray, lo: int, thresholds: Sequence[int], masks: list[int],
               columns: list[int], backward: bool, origin: Optional[int],
               above: np.ndarray) -> tuple[list[int], list[int]]:
    """The E and N gates, each a list of K int rows (see _row_propagate), of
    a (K, B, hi - lo) block of hashes of columns lo to hi - 1, K rows of B
    trials, drawn as atoms with masks; columns are the rows' _trial_columns.

    Each threshold's plane of h is compared into above[:, lo:hi], a bool
    buffer of at least K * B rows, False from column hi on and padded to a
    row's whole words, and packed; each row reads its part of the packed
    plane as one int, and bitgrid.atom_plane maps those planes to the E and
    N gates, over columns 0 to hi - 1, so every gate from column hi on is
    closed; when the same atoms carry E and N, one plane serves both.
    Below lo, above keeps what earlier blocks left, so the gates there are
    arbitrary: the caller's rows hold no bit below lo, and a gate with no
    row bit at or below it opens nothing.  origin, when given, replaces
    column 0's draw in the block's row 0.  Backward, the E gates move one
    column back (e[i] = e[i + 1]; column n - 1 keeps its own, as the guard's
    gate, shifted into it, is closed).
    """
    k, b, width = h.shape
    valid, last, col0 = columns
    rows = above[:k * b]
    passed = [np.packbits(rows, axis=-1, bitorder="little").reshape(k, -1)
              for _ in rng.passed(h.reshape(k * b, width), thresholds,
                                  rows[:, lo:lo + width])]
    full = (col0 << lo + width) - col0  # each trial's columns 0 to hi - 1
    same = origin is None and all(bool(m & BIT_E) == bool(m & BIT_N) for m in masks)
    e, up = [], []
    for j in range(k):
        planes = [int.from_bytes(plane[j], "little") for plane in passed]
        e.append(atom_plane(planes, masks, BIT_E, full))
        up.append(e[j] if same else atom_plane(planes, masks, BIT_N, full))
    if origin is not None:  # column 0 of row 0 takes the origin's gates
        e[0] = e[0] & ~col0 | (col0 if origin & BIT_E else 0)
        up[0] = up[0] & ~col0 | (col0 if origin & BIT_N else 0)
    if backward:
        e = [g >> 1 & valid | g & last for g in e]
    return e, up


def _oriented_reach_trials(measure: SupportMeasure, trials: int, draw: RowDraw, n: int,
                           backward: bool, origin: Optional[int] = None,
                           diagonal: bool = False) -> np.ndarray:
    """Edge contact of the corner's cluster on an n x n quadrant of a
    NE-oriented model, per trial: meeting the last column or the last row.

    Trials run SWEEP_BATCH at a time, row by row; row k is drawn at y = k,
    or y = -k backward, as atoms of measure, and origin, when given,
    replaces the corner's draw.  Rows are drawn, gated and settled in blocks
    of up to CHECK_EVERY, as many as keep a block within 2 * SWEEP_BATCH
    (trial, row) pairs, so SWEEP_BATCH bounds both the trials swept together
    and the hashes drawn at once.  Rows and gates are ints of the whole
    batch (see _row_propagate), read as (B, words) arrays only to settle.
    A block draws the columns [lo, hi) of the live rows' band only (see the
    row sweep's comment block); above is cleared at each batch's start, and
    as hi never shrinks, its columns from hi on stay False.
    Forward, a gate sits at its source: E at column i opens the step to i + 1,
    and N the step up.  Backward reach is swept in the reflected coordinates
    (-column, -row), where a gate sits at its destination: the E gates move
    one column back, and a row's N gates open the steps into it.  With
    diagonal (forward), an N gate also opens the step to column i + 1 of the
    next row.
    """
    start, finish = draw
    nbytes = 8 * ((n + 64) // 64)  # a trial's row, with column n a guard
    thresholds, masks = measure.thresholds, measure.masks.tolist()
    above = np.empty((2 * SWEEP_BATCH, 8 * nbytes), dtype=bool)
    batch_columns = _trial_columns(SWEEP_BATCH, n)
    dy = -1 if backward else 1
    out = np.zeros(trials, dtype=bool)

    def words(x: int) -> np.ndarray:  # the live trials' rows of x
        return np.frombuffer(x.to_bytes(len(live) * nbytes, "little"),
                             np.uint64).reshape(len(live), -1)

    for base in range(0, trials, SWEEP_BATCH):
        live = np.arange(base, min(base + SWEEP_BATCH, trials), dtype=np.int64)
        state = start(live)
        columns = [c >> 8 * nbytes * (SWEEP_BATCH - len(live)) for c in batch_columns]
        valid, last, row = columns  # each trial starts at its column 0
        above[:] = False  # the band's hi never shrinks within a batch
        lo, hi = 0, min(n, 1 + _BAND_MARGIN)
        first = 0
        while True:
            stop = min(first + min(CHECK_EVERY, max(1, 2 * SWEEP_BATCH // len(live))), n)
            e, up = _row_gates(finish(state, [dy * k for k in range(first, stop)], lo, hi),
                               lo, thresholds, masks, columns, backward,
                               origin if first == 0 else None, above)
            ends, entering = 0, row  # the block's rows, or-ed, and its first row's input
            for j, k in enumerate(range(first, stop)):
                if k:
                    if backward:  # an N gate at its destination opens the step into row k
                        row &= up[j]
                    if diagonal:
                        row |= row << 1 & valid
                row = _row_propagate(row, e[j], valid)
                ends |= row
                if not backward and k < n - 1:  # an N gate at its source opens the step out
                    row &= up[j]
            if hi < n and ends & columns[2] << hi - 1:  # a run may go on past the band
                hi, row = min(n, hi + _BAND_MARGIN), entering
                continue
            rows = words(row)
            hit = words(ends & last).any(axis=1)
            alive = rows.any(axis=1)
            if stop == n:
                out[live] = hit | alive
                break
            out[live[hit]] = True
            keep = alive & ~hit
            kept = int(np.count_nonzero(keep))
            if not kept:
                break
            if kept < len(live):
                columns = [c >> 8 * nbytes * (len(live) - kept) for c in columns]
                valid, last, _ = columns
                live, state, row = live[keep], state[keep], int.from_bytes(rows[keep], "little")
            reached = int.from_bytes(np.bitwise_or.reduce(rows[keep]).tobytes(), "little")
            lo = (reached & -reached).bit_length() - 1
            hi = min(n, max(hi, reached.bit_length() + _BAND_MARGIN))
            first = stop
    return out


# Columns a sweep's band reaches past its live rows' last bit.  A block whose
# rows meet the band's last column is redone on a band this much wider.
_BAND_MARGIN = 32


# Trials swept together by the row sweep, read at call time; a block of
# rows draws at most 2 * SWEEP_BATCH (trial, row) pairs of hashes.
SWEEP_BATCH = 256

# Trials per reach_batch call on the generic path.  Trials are hashed and
# packed one at a time into buffers kept for the call, and only their packed
# masks are stacked, so a chunk costs 4 * REACH_CHUNK packed grids of
# memory, not REACH_CHUNK hashed windows.
REACH_CHUNK = 16


def _packed_chunks(measure: SupportMeasure, window: Window, master_seed: int,
                   trials: int, origin: Optional[int] = None):
    """Yield (4, B, ny, nwords) move masks of the trials, REACH_CHUNK at a time.

    Trial t draws the window from seed spawn_seed(master_seed, t), as
    sample_masks does, but through _site_draw in row order: a chunk's
    (trial, x) prefixes are started at once, and each trial's window is
    finished with the ny rows into the draw's kept buffers, so the hash
    holds sample_masks' keys transposed.  Each threshold's plane of the
    sites at or past it is packed as it is compared, and atom_moves builds
    the trial's moves from those words in the chunk's array, so no atom or
    arrow array is made.  origin, when given, replaces the origin's draw;
    the origin lies off the window's edge ring (every caller centres the
    window on it), so none of its moves leaves the window.
    """
    nx, ny = window.shape
    ys = np.arange(window.lo[1], window.hi[1] + 1, dtype=np.int64)[:, None, None]
    start, finish = _site_draw(master_seed, trials,
                               np.arange(window.lo[0], window.hi[0] + 1, dtype=np.int64))
    above = np.empty((ny, nx), dtype=bool)
    atoms = measure.thresholds, measure.masks
    if origin is not None:
        word, bit = divmod(-window.lo[0], 64)
        iy, site = -window.lo[1], np.uint64(1 << bit)
        origin_has = np.array([bool(origin & b) for b in (BIT_E, BIT_N, BIT_W, BIT_S)])
    for lo in range(0, trials, REACH_CHUNK):
        prefixes = start(np.arange(lo, min(lo + REACH_CHUNK, trials)))
        moves = np.empty((4, len(prefixes), ny, -(-nx // 64)), dtype=np.uint64)
        for i in range(len(prefixes)):
            _hash_moves(atoms, finish(prefixes[i:i + 1], ys, 0, nx)[:, 0], above, moves[:, i])
            if origin is not None:
                cell = moves[:, i, iy, word]
                moves[:, i, iy, word] = np.where(origin_has, cell | site, cell & ~site)
        yield moves


def _hash_moves(atoms: tuple, h: np.ndarray, above: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The (4, ny, nwords) packed moves of the window whose (ny, nx) row-order
    hashes are h, written into out; atoms is a measure's (thresholds, masks),
    which the measure computes at every access.  Each threshold's plane of
    the sites at or past it, in the (ny, nx) bool scratch above, is packed as
    it is compared, and atom_moves builds the moves from those words."""
    thresholds, masks = atoms
    return atom_moves([pack_rows(p) for p in rng.passed(h, thresholds, above)], masks,
                      h.shape[1], out)


def _packed_values(measure: SupportMeasure, radius: int, trials: int, master_seed: int,
                   statistic: str, origin: Optional[int] = None) -> np.ndarray:
    """Named statistic of every trial, one chunk of packed windows at a time.

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


# The sweep's (column sign, backward, diagonal) per reach statistic: the
# forward cluster lives in [0, radius]^2, the backward one in [-radius, 0]^2
# (swept reflected), and otsp's in the northwest quadrant, on NE-.'s measure
# (an open site carries NE's gates) with a diagonal step.
_SWEEPS = {REACH_C: (1, False, False), REACH_B: (-1, True, False),
           REACH_OTSP: (-1, False, True)}


def _statistic_values(measure: SupportMeasure, radius: int, trials: int,
                      master_seed: int, statistic: str,
                      live_origin: bool = False) -> np.ndarray:
    """Per-trial values of a named statistic, on the simulator that fits it.

    A live origin carries every arrow of the support, the usual survival
    convention for oriented growth.  reach_otsp runs on a NE-oriented
    measure only.
    """
    swept = _is_ne_oriented(measure)
    if statistic not in _STATISTICS and not (statistic == REACH_OTSP and swept):
        raise ValidationError(f"statistic must be one of {_STATISTICS}, or {REACH_OTSP}"
                              f" on a NE-oriented measure; got {statistic!r}")
    origin = int(np.bitwise_or.reduce(measure.masks)) if live_origin else None
    if statistic in _SWEEPS and swept:
        sign, backward, diagonal = _SWEEPS[statistic]
        n = radius + 1
        draw = _site_draw(master_seed, trials, sign * np.arange(n, dtype=np.int64))
        return _oriented_reach_trials(measure, trials, draw, n, backward, origin, diagonal)
    return _packed_values(measure, radius, trials, master_seed, statistic, origin)


def _mean_se(values: np.ndarray) -> float:
    """Standard error of a sample mean; 0.0 for a single value."""
    n = len(values)
    return float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0


def _zscore(diff: float, se: float) -> float:
    """diff / se; with no spread the difference is exact: z is 0 if it is 0, else signed inf."""
    if se > 0:
        return diff / se
    return 0.0 if diff == 0 else math.copysign(math.inf, diff)


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
    values = _statistic_values(measure, plan.radius, plan.trials, plan.master_seed,
                               plan.statistic)
    return _record(plan.model_label, plan.p_label, plan.radius, plan.statistic, values,
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
        return _zscore(self.lhs - self.rhs, self.pooled_se)


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

def otsp_reach_estimate(p: float, radius: int, trials: int, master_seed: int = 0,
                        origin_open: bool = False) -> EstimateRecord:
    """Edge reach of the oriented triangular lattice: a site is open with
    probability p and points to its west, north and northwest neighbors; a
    closed site can be reached but not left, as in site percolation."""
    require_p(p)
    _require_run(radius, trials)
    t0 = time.perf_counter()
    hits = _statistic_values(measure_for(ModelId("NE-.", p)), radius, trials, master_seed,
                             REACH_OTSP, live_origin=origin_open)
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
    if not (0.0 < target < 1.0 and 0.0 < tol < math.inf):
        raise ValidationError(f"need target in (0, 1) and a finite tol > 0, got {target!r}, {tol!r}")
    if max_probes < 2:
        raise ValidationError(f"need max_probes >= 2, one per bracket end, got {max_probes!r}")
    probes: list[tuple[float, float, float]] = []

    if callable(model):
        def probe(p: float, idx: int) -> float:
            est = float(model(p))
            probes.append((p, est, 0.0))
            return est
    else:
        name, statistic = (("NE-.", REACH_OTSP) if model.strip().lower() == "otsp"
                           else (canonical_name(model), REACH_C))
        if name not in BISECTABLE:
            raise ValidationError(f"{name!r} is not on the monotone allowlist {BISECTABLE};"
                                  " chart a survival curve instead")
        _require_run(radius, trials_per_probe)

        def probe(p: float, idx: int) -> float:
            seed = rng.spawn_seed(master_seed, idx)
            t0 = time.perf_counter()
            vals = _statistic_values(measure_for(ModelId(name, p)), radius, trials_per_probe,
                                     seed, statistic, live_origin=True)
            rec = _record(name, p, radius, statistic, vals, seed, t0)
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
    return _zscore(freq - prob, math.sqrt(prob * (1.0 - prob) / n))


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
    _require_run(k_max, samples)
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
        zs.append(abs(_zscore(self.mean_dl - self.drift_dl, self.se_dl)))
        zs.append(abs(_zscore(self.mean_du - self.drift_du, self.se_du)))
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

    require_p(p)
    _require_two(samples, "samples")
    if j_range < 0:
        raise ValidationError(f"need j_range >= 0, got {j_range}")
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
        float(dl.mean()), _mean_se(dl), drifts["delta_L0"],
        float(du.mean()), _mean_se(du), drifts["delta_U0"],
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
        return _zscore(self.mean - self.theory, self.se)


def seoa_excursion_test(p: float, samples: int, master_seed: int = 0) -> ExcursionReport:
    """Vertical excursions of the SE-on-average path, lazily sampled.

    A fresh column starts with a three-arrow site (probability p) and then
    descends through its run (excursion -(run length)), or starts with an
    up run that the path climbs (+run length).
    """
    from .bounds import drift_formulas

    require_p(p)
    _require_two(samples, "samples")
    gen = np.random.default_rng(rng.spawn_seed(master_seed, 0x5E0A))
    starts_swe = gen.random(samples) < p
    down = gen.geometric(1.0 - p, samples) - 1  # extra three-arrow sites below
    up = gen.geometric(p, samples)              # up sites climbed, >= 1
    w = np.where(starts_swe, -down, up)
    theory = drift_formulas("SWE-N", p)["seoa_mean_excursion"]
    return ExcursionReport(p, samples, float(w.mean()), _mean_se(w), theory)


def w_walk_drift_test(p: float, samples: int, master_seed: int = 0) -> ExcursionReport:
    """Down-step column increments of the SE path in the orthant model."""
    from .bounds import drift_formulas

    require_p(p)
    _require_two(samples, "samples")
    gen = np.random.default_rng(rng.spawn_seed(master_seed, 0xDE1F))
    dw = gen.geometric(1.0 - p, samples) - 1   # NE sites passed before the SW drop
    theory = drift_formulas("NE-SW", p)["delta_W"]
    return ExcursionReport(p, samples, float(dw.mean()), _mean_se(dw), theory)


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


def _up_or_right_fronts(p: float, trials: int, master_seed: int):
    """Yield the antidiagonal fronts of the sites whose path reaches the origin.

    Front n (n = 0, 1, ...) is a (trials, n+1) boolean array over the
    sites (-(n-i), -i), i = 0..n, indexed by their second offset; each site
    steps up (to index i-1 of front n-1) or right (to index i).
    """
    live = np.arange(trials, dtype=np.int64)
    thresholds = rng.thresholds((p, 1.0 - p))
    b = np.ones((trials, 1), dtype=bool)
    yield b
    for n in itertools.count(1):
        i = np.arange(n + 1, dtype=np.int64)
        (above,) = rng.passed(_up_or_right_hash(master_seed, live, i - n, -i), thresholds)  # one plane, as p < 1
        up = ~above  # atom 0
        padded = np.zeros((trials, n + 2), dtype=bool)
        padded[:, 1:-1] = b
        b = np.where(up, padded[:, :-1], padded[:, 1:])
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
    if not 1 <= n_levels < radius:
        raise ValidationError(f"need 1 <= n_levels < radius, so no level is truncated, got {n_levels}")
    fronts = _up_or_right_fronts(p, trials, master_seed)
    counts = np.array([front.sum(axis=1) for front in itertools.islice(fronts, n_levels + 1)])
    means = counts.mean(axis=1)
    diffs = counts[1:] - counts[:-1]
    ses = diffs.std(axis=1, ddof=1) / math.sqrt(trials)
    zs = tuple(_zscore(float(d), float(se)) for d, se in zip(diffs.mean(axis=1), ses))
    return MartingaleReport(p, radius, trials, tuple(map(float, means)),
                            tuple(map(float, ses)), zs)


def theta_minus_curve(p: float, radii: Sequence[int], trials: int,
                      master_seed: int = 0) -> list[EstimateRecord]:
    """Backward-reach estimates of the up-or-right model over nested windows.

    The site draws are keyed on coordinates alone, so the windows are
    nested realizations of one environment and the estimates are monotone
    trial-by-trial: reaching the larger edge implies reaching the smaller.
    N-E is NE-oriented, so the backward row sweep decides each trial.
    """
    measure = measure_for(ModelId("N-E", p))
    _require_radii(radii, trials)
    out = []
    for radius in radii:
        t0 = time.perf_counter()
        n = radius + 1
        xs = -np.arange(n, dtype=np.int64)
        draw = (lambda live: live,
                lambda live, ys, lo, hi: _up_or_right_hash(master_seed, live, xs[lo:hi],
                                                           np.array(ys)[:, None, None]))
        touched = _oriented_reach_trials(measure, trials, draw, n, backward=True)
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
    if measure.d != 2:
        raise DimensionError("the Monte Carlo engine runs on d=2 windows")
    _require_radii(radii, trials)
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
    the boundary-sequence verifier of the matching dual lattice; a model
    with no dual lattice is rejected.

    Each realization is classify_b_shape on sample_environment(model,
    outer window, spawn_seed(master_seed, t)), run in its two halves on
    the same draws: the window is hashed in row order and packed straight
    into moves, as _packed_chunks does, and the inner window's arrows are
    built from the same hashes only when a blocking function is checked.
    """
    from . import bounds as bounds_mod

    measure = measure_for(model)
    if measure.d != 2:
        raise DimensionError("the Monte Carlo engine runs on d=2 windows")
    _require_run(radius, trials)
    lattice = bounds_mod.dual_lattice(measure)
    if verify_dual and lattice is None:
        raise ValidationError("only NE-SW and SWE-N carry a blocking duality to verify")
    if margin is None:
        margin = radius
    if margin < 0:
        raise ValidationError(f"need margin >= 0, got {margin}")
    inner = Window.centered(radius, 2)
    outer = Window.centered(radius + margin, 2)
    n = outer.shape[0]
    coords = np.arange(-radius - margin, radius + margin + 1, dtype=np.int64)
    start, finish = _site_draw(master_seed, trials, coords)
    atoms, above = (measure.thresholds, measure.masks), np.empty((n, n), dtype=bool)
    moves = np.empty((4, n, -(-n // 64)), dtype=np.uint64)
    # the inner window's (row, column) block of the row-order hashes
    core = (slice(margin, n - margin),) * 2
    counts: dict[str, int] = {}
    reaching = 0
    mono = 0
    verified = 0
    for t in range(trials):
        h = finish(start(np.array([t])), coords[:, None, None], 0, n)[:, 0]
        b_set = b_shape_reach(_hash_moves(atoms, h, above, moves), outer, (0, 0), inner)
        # the inner window's grid, built at most once, when a blocking
        # function is checked
        grid = cache(lambda h=h: EnvironmentGrid(inner, masks_from_hash(measure, h[core].T),
                                                 measure, model))
        report = b_shape_read(b_set, outer, (0, 0), inner, grid)
        counts[report.shape] = counts.get(report.shape, 0) + 1
        if report.touches_boundary:
            reaching += 1
        if report.shape == "BlockedAbove":
            if report.blocking.monotone_decreasing:
                mono += 1
            if verify_dual:
                ok, _ = bounds_mod.verify_duality(grid(), report.blocking, lattice)
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
    at or right of the edge, so the SE column starts start_gap >= 1 columns
    left of it; w_cells lists the steps j = 0..j_max, j_max >= 0.  The
    trials that have not crossed climb each level together, site (level,
    col) of trial t keyed on (master_seed, t, level, col).
    """
    require_p(p)
    _require_run(levels, trials)
    if start_gap < 1 or j_max < 0:
        raise ValidationError(f"need start_gap >= 1 and j_max >= 0, got {start_gap}, {j_max}")
    thresholds = rng.thresholds((p, 1.0 - p))

    def ne(row: np.ndarray, cols: np.ndarray) -> np.ndarray:
        (sw,) = rng.passed(rng.hash_from(row, (cols,)), thresholds)  # one plane: p < 1
        return ~sw

    # the trials still walking: key state, SE column and lower edge
    state = rng.hash_parts(master_seed, (np.arange(trials),))
    w = np.full(trials, -start_gap, dtype=np.int64)
    l = np.zeros(trials, dtype=np.int64)
    dw_counts = np.zeros(j_max + 1, dtype=np.int64)
    dw_total = 0
    dw_sum = 0
    for level in range(1, levels + 1):
        if not state.size:
            break
        row = rng.hash_from(state, (level,))
        # SE path: walk right through NE sites, drop at the first SW site
        col = w.copy()
        run = np.arange(col.size)
        while run.size:
            run = run[ne(row[run], col[run])]
            col[run] += 1
        dw = col - w
        w = col
        dw_counts += np.bincount(dw, minlength=j_max + 1)[:j_max + 1]
        dw_sum += int(dw.sum())
        dw_total += dw.size
        # lower edge: extend left through NE sites, else scan right
        left = ne(row, l)
        run = np.flatnonzero(left)
        while run.size:
            run = run[ne(row[run], l[run] - 1)]
            l[run] -= 1
        run = np.flatnonzero(~left)
        l[run] += 1
        while run.size:
            run = run[~ne(row[run], l[run])]
            l[run] += 1
        walking = w < l
        state, w, l = state[walking], w[walking], l[walking]
    crossings = trials - state.size
    from .bounds import w_step_prob

    cells = []
    for j, count in enumerate(dw_counts.tolist()):
        freq = count / dw_total
        prob = w_step_prob(j, p)
        cells.append({"j": j, "freq": freq, "prob": prob,
                      "z": _z(freq, prob, dw_total)})
    return WnCrossingReport(p, trials, levels, start_gap, crossings / trials,
                            tuple(cells), dw_sum / dw_total)
