"""Directed subnetwork paths and open-cycle constructions.

The path families here are the workhorses of the two-dimensional
arguments: quadrant paths (each step stays inside one quadrant, with a
seeded tiebreak when both arrows are available), the south-east/west
"on average" paths of the three-or-up model, pairwise coalescence of
up-right paths, and closed open cycles enclosing a target box, which
certify a gigantic communicating component.

Window adaptation: the cycle constructions chain quadrant-style legs
around a padded box and accept a cycle either when a leg revisits the
trace or by splicing a backward path (restricted to avoid the box) from a
late trace site to an early one.  Legs that leave the window keep their
traced part and the splice still runs, because at moderate parameters the
pure spiral drifts outside any reasonable window long before it closes.
Every returned cycle is re-verified: all steps open, disjoint from the
box, nonzero winding number around it.  Failure to find a cycle is
one-sided evidence only.  The model picks the construction, and every
path and leg steps on one loop, _walk.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rng
from .bitgrid import edge_mask, move_masks, reach_batch, reversed_moves, unpack_words
from .clusters import BACKWARD, FORWARD, _bfs_run, _bfs_table, _require_2d
from .directions import (BIT_N, BIT_S, N_MASK, NE_MASK, QUADRANTS, SW_MASK, SWE_MASK,
                         all_directions, token_of)
from .env import EnvironmentGrid, Site, Window
from .errors import ModelAssumptionError, ValidationError
from .measure import SupportMeasure, theta_plus_is_one
from .models import require_p

EXIT_BOUNDARY = "HitBoundary"
EXIT_CYCLE = "ClosedCycle"
EXIT_STEP_LIMIT = "StepLimit"
_EXIT_STOP = "Stop"  # a leg reached the site its stop predicate asks for

# Arrow bit of each unit step, in the fixed E, N, W, S neighbor order.
_STEP_BIT = {dn.step(2): 1 << dn.bit(2) for dn in all_directions(2)}


@dataclass(frozen=True)
class PathTrace:
    sites: tuple[Site, ...]
    exit_reason: str
    met_at: Optional[Site] = None

    def __len__(self) -> int:
        return len(self.sites)

    def steps_open_in(self, env: EnvironmentGrid) -> bool:
        return cycle_is_open(env, self.sites)


def step_mask(delta: tuple[int, int]) -> int:
    if delta not in _STEP_BIT:
        raise ValidationError(f"not a unit step: {delta}")
    return _STEP_BIT[delta]


def step_limit(window: Window) -> int:
    nx, ny = window.shape
    return 16 * 2 * (nx + ny)


def quadrant_path(
    env: EnvironmentGrid,
    start: Site,
    quadrant: str,
    seed: int = 0,
) -> PathTrace:
    """Follow arrows of one quadrant from start until the window ends.

    When both quadrant arrows are present the first listed (the vertical
    one) is taken with probability 1/2, independently per visit from a
    private seeded stream.  A site carrying neither quadrant arrow
    violates the model assumption and raises.
    """
    _require_2d(env)
    if quadrant not in QUADRANTS:
        raise ValidationError(f"quadrant must be one of {sorted(QUADRANTS)}")
    if not env.window.contains(start):
        raise ValidationError(f"start {start} outside the window")
    first, second = QUADRANTS[quadrant]
    gen = np.random.default_rng(rng.spawn_seed(seed, 0x71AD))
    return _follow(env, start, _quadrant_mover(env, first, second, gen))


def _quadrant_mover(env, first, second, gen) -> Callable[[Site], Site]:
    b1 = 1 << first.bit(2)
    b2 = 1 << second.bit(2)
    s1, s2 = first.step(2), second.step(2)

    def mover(site: Site) -> Site:
        mask = env.mask_at(site)
        has1, has2 = mask & b1, mask & b2
        if has1 and has2:
            s = s1 if gen.random() < 0.5 else s2
        elif has1:
            s = s1
        elif has2:
            s = s2
        else:
            raise ModelAssumptionError(
                f"site {site} has no arrow in the requested quadrant", site=site
            )
        return (site[0] + s[0], site[1] + s[1])

    return mover


def _walk(window: Window, sites: list[Site], seen: set[Site], mover,
          stop: Optional[Callable[[Site], bool]] = None) -> str:
    """Step sites[-1] with mover, appending each new site; returns the exit reason.

    seen holds the sites of sites.  The walk ends with _EXIT_STOP when stop
    holds at the current site, EXIT_BOUNDARY when a step leaves the window
    (that site is not appended), EXIT_CYCLE when a step lands on a seen
    site (appended), or EXIT_STEP_LIMIT after step_limit(window) steps.
    """
    site = sites[-1]
    for _ in range(step_limit(window)):
        if stop is not None and stop(site):
            return _EXIT_STOP
        site = mover(site)
        if not window.contains(site):
            return EXIT_BOUNDARY
        sites.append(site)
        if site in seen:
            return EXIT_CYCLE
        seen.add(site)
    return EXIT_STEP_LIMIT


def _follow(env, start, mover) -> PathTrace:
    sites = [start]
    exit_reason = _walk(env.window, sites, {start}, mover)
    return PathTrace(tuple(sites), exit_reason)


def _seoa_mover(env: EnvironmentGrid, eastward: bool) -> Callable[[Site], Site]:
    """Down if that lands on another three-arrow site, else sideways; up sites go up.

    On the window's bottom row the down step leaves the window, which ends
    the path.
    """
    window = env.window
    side = (1, 0) if eastward else (-1, 0)

    def mover(site: Site) -> Site:
        mask = env.mask_at(site)
        if mask == N_MASK:
            return (site[0], site[1] + 1)
        if mask == SWE_MASK:
            below = (site[0], site[1] - 1)
            if not window.contains(below) or env.mask_at(below) == SWE_MASK:
                return below
            return (site[0] + side[0], site[1] + side[1])
        raise ModelAssumptionError(
            f"site {site} is not from the three-or-up model", site=site
        )

    return mover


def _on_average_path(env: EnvironmentGrid, start: Site,
                     eastward: bool) -> tuple[PathTrace, list[int]]:
    _require_2d(env)
    if env.measure is None or env.measure.support() != frozenset({SWE_MASK, N_MASK}):
        raise ModelAssumptionError("path family needs the three-or-up model")
    if not env.window.contains(start):
        raise ValidationError(f"start {start} outside the window")
    trace = _follow(env, start, _seoa_mover(env, eastward))
    excursions: list[int] = []
    vertical = 0
    for a, b in zip(trace.sites, trace.sites[1:]):
        if b[1] != a[1]:
            vertical += b[1] - a[1]
        else:
            excursions.append(vertical)
            vertical = 0
    return trace, excursions


def seoa_path(env: EnvironmentGrid, start: Site) -> tuple[PathTrace, list[int]]:
    """South-east-on-average path plus its vertical excursion samples.

    The excursion recorded before each east step is the net vertical
    displacement since the previous sideways step; its mean is
    -(p^3 - p^2 + 2p - 1) / (p(1-p)) with p the three-arrow probability.
    Never steps west.
    """
    return _on_average_path(env, start, eastward=True)


def swoa_path(env: EnvironmentGrid, start: Site) -> tuple[PathTrace, list[int]]:
    """Mirror image of seoa_path; never steps east."""
    return _on_average_path(env, start, eastward=False)


# ---------------------------------------------------------------------------
# Coalescence of up-right paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoalescenceStats:
    trials: int
    met: int
    meeting_levels: dict[int, int]
    diff_step_freq: dict[int, float]
    diff_steps: int

    @property
    def meet_fraction(self) -> float:
        return self.met / self.trials if self.trials else float("nan")


def coalescence_stats(
    p: float,
    x: Site,
    y: Site,
    trials: int,
    max_levels: int,
    master_seed: int = 0,
) -> CoalescenceStats:
    """Meeting statistics of the two up-right paths started at x and y.

    The up-or-right model has a single arrow per site (up with probability
    p), so each start has one path.  Sites are drawn lazily, keyed on
    (master_seed, trial, site), so the two paths live in one environment
    and coalesce permanently once they meet; the trials whose paths are
    still apart step together.  The first-coordinate
    difference moves +1 or -1 with probability p(1-p) each while the paths
    are apart; its empirical step law is returned.
    """
    require_p(p)
    if trials < 1 or max_levels < 1:
        raise ValidationError(f"need trials >= 1 and max_levels >= 1, got {trials}, {max_levels}")
    if not all(len(s) == 2 and all(isinstance(c, (int, np.integer)) for c in s) for s in (x, y)):
        raise ValidationError(f"starts must be 2-D integer sites, got {x!r}, {y!r}")
    thresholds = rng.thresholds((p, 1.0 - p))
    state = rng.hash_parts(master_seed, (np.arange(trials),))
    # each trial's two paths, as (trial, coordinate) arrays
    a = np.tile(np.array(x, dtype=np.int64), (trials, 1))
    b = np.tile(np.array(y, dtype=np.int64), (trials, 1))

    def step(run: np.ndarray, path: np.ndarray) -> None:
        """Move the run's trials' sites on path one step: up on atom 0, else right."""
        (right,) = rng.passed(rng.hash_from(state[run], (path[run, 0], path[run, 1])),
                              thresholds)  # one plane: p < 1
        path[run, 0] += right
        path[run, 1] += ~right

    # bring both to a common anti-diagonal level: every trial takes the same
    # number of steps, since each step raises the level by one
    run = np.arange(trials)
    gap = int(sum(y)) - int(sum(x))
    for _ in range(abs(gap)):
        step(run, a if gap > 0 else b)
    met_at = np.full(trials, -1)
    diff_counts = np.zeros(3, dtype=np.int64)
    for level in range(max_levels):
        same = (a[run] == b[run]).all(axis=1)
        met_at[run[same]] = level
        run = run[~same]
        if not run.size:
            break
        d0 = a[run, 0] - b[run, 0]
        step(run, a)
        step(run, b)
        diff_counts += np.bincount(a[run, 0] - b[run, 0] - d0 + 1, minlength=3)
    # first met in trial order, as the levels' insertion order
    meeting_levels = dict(Counter(met_at[met_at >= 0].tolist()))
    met = sum(meeting_levels.values())
    diff_steps = int(diff_counts.sum())
    freq = {k: (v / diff_steps if diff_steps else float("nan"))
            for k, v in zip((-1, 0, 1), diff_counts.tolist())}
    return CoalescenceStats(trials, met, meeting_levels, freq, diff_steps)


# ---------------------------------------------------------------------------
# Open cycles and gigantic communicating components
# ---------------------------------------------------------------------------

SPIRAL_LRUD = "spiral_lrud"
SPIRAL_SWE_N = "spiral_swe_n"
ORTHANT = "orthant"

# Late trace sites tried as splice ends per anchor.
_MAX_Z_PER_ANCHOR = 8


@dataclass(frozen=True)
class OpenCycle:
    sites: tuple[Site, ...]
    box_radius: int
    winding: int
    strategy: str

    def __post_init__(self):
        if self.sites[0] != self.sites[-1]:
            raise ValidationError("a cycle must start and end at the same site")


def winding_number(sites, point: tuple[float, float]) -> int:
    px, py = point
    total = 0.0
    for (x0, y0), (x1, y1) in zip(sites, sites[1:]):
        ax, ay = x0 - px, y0 - py
        bx, by = x1 - px, y1 - py
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    return round(total / (2.0 * math.pi))


def cycle_is_open(env: EnvironmentGrid, sites) -> bool:
    for a, b in zip(sites, sites[1:]):
        delta = (b[0] - a[0], b[1] - a[1])
        if not env.window.contains(a):
            return False
        if not env.mask_at(a) & step_mask(delta):
            return False
    return True


def cycle_encloses_box(sites, m: int) -> Optional[int]:
    """Winding number around the origin if the cycle avoids [-m, m]^2, else None."""
    for (sx, sy) in sites:
        if abs(sx) <= m and abs(sy) <= m:
            return None
    w = winding_number(sites, (0.0, 0.0))
    return w if w != 0 else None


def _verify_cycle(env, sites, m, strategy) -> Optional[OpenCycle]:
    if len(sites) < 4 or sites[0] != sites[-1]:
        return None
    if not cycle_is_open(env, sites):
        return None
    w = cycle_encloses_box(sites, m)
    if w is None:
        return None
    return OpenCycle(tuple(sites), m, w, strategy)


def _path_to_root(parents: dict[Site, Optional[Site]], site: Site) -> list[Site]:
    """site, parents[site], ... up to the root of a parent map."""
    path = [site]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return path


def _splice_cycle(env, trace, anchor_indices, m, mc, strategy) -> Optional[OpenCycle]:
    """Close a partial spiral through an open path that avoids the box.

    The traced legs passed under the box, so the splice from a late trace
    site z back to an early anchor must return over the top or the loop has
    winding zero.  For each candidate pair the path is routed through a
    waypoint in the strip above the box: forward tree from z meets backward
    tree into the anchor inside the strip.  A direct (waypoint-free) splice
    is kept as a fallback; the winding check on every candidate decides.
    """
    # every anchor is a start or a leg's stop site, so none lies in the box
    into_table, from_table = _bfs_table(env, BACKWARD, m), _bfs_table(env, FORWARD, m)
    n = len(trace)
    for a_idx in anchor_indices:
        anchor = trace[a_idx]
        into_anchor = dict(_bfs_run(into_table, anchor))
        if len(into_anchor) < 2:
            continue
        tried = 0
        for j in range(n - 1, a_idx, -1):
            z = trace[j]
            if z not in into_anchor:
                continue
            tried += 1
            if tried > _MAX_Z_PER_ANCHOR:
                break
            from_z = dict(_bfs_run(from_table, z))
            waypoint = None
            best = None
            for site in from_z:
                if site[1] >= mc and site in into_anchor:
                    key = (abs(site[0]), site[1])
                    if best is None or key < best:
                        best = key
                        waypoint = site
            candidates = []
            if waypoint is not None:
                out = _path_to_root(from_z, waypoint)[::-1]  # z ... waypoint
                back = _path_to_root(into_anchor, waypoint)[1:]
                candidates.append(list(trace[a_idx:j + 1]) + out[1:] + back)
            direct = _path_to_root(into_anchor, z)
            candidates.append(list(trace[a_idx:j + 1]) + direct[1:])
            for cand in candidates:
                cycle = _verify_cycle(env, cand, m, strategy)
                if cycle is not None:
                    return cycle
    return None


def _trace_legs(env, start, legs, movers) -> tuple[list[Site], list[int], str]:
    """Chain legs from start; returns (trace, leg start indices, exit reason).

    legs is a list of (mover name, stop predicate).  A leg ends at the first
    site satisfying its predicate; any other exit of a leg ends the whole
    trace.  The exit is _EXIT_STOP when every leg ended at its stop, and
    EXIT_CYCLE when a step landed on an earlier trace site (the last).
    """
    trace = [start]
    seen = {start}
    anchors = [0]
    for mover_name, stop in legs:
        exit_reason = _walk(env.window, trace, seen, movers[mover_name], stop)
        if exit_reason != _EXIT_STOP:
            return trace, anchors, exit_reason
        anchors.append(len(trace) - 1)
    return trace, anchors, _EXIT_STOP


def _quadrant_movers(env, seed):
    gen = np.random.default_rng(rng.spawn_seed(seed, 0xC1C1E))
    return {name: _quadrant_mover(env, first, second, gen)
            for name, (first, second) in QUADRANTS.items()}


def _atoms_cover_all_quadrants(measure: SupportMeasure) -> bool:
    quads = [(1 << a.bit(2)) | (1 << b.bit(2)) for a, b in QUADRANTS.values()]
    return all(all(m & q for q in quads) for m, _ in measure.atoms)


def _construction(measure: SupportMeasure) -> Optional[str]:
    """The one cycle construction that fits the model, or None.

    The three fits exclude each other: the NE atom misses the SW quadrant
    and the N atom both southern ones, so neither model fits spiral_lrud.
    """
    support = measure.support()
    if support == frozenset({NE_MASK, SW_MASK}):
        return ORTHANT
    if support == frozenset({SWE_MASK, N_MASK}):
        return SPIRAL_SWE_N
    if _atoms_cover_all_quadrants(measure):
        return SPIRAL_LRUD
    return None


def build_open_cycle(env: EnvironmentGrid, m: int, seed: int = 0) -> Optional[OpenCycle]:
    """Try to construct a verified open cycle enclosing [-m, m]^2.

    The model picks the construction: orthant closes through the
    up-left-right cluster of the NE-SW model; spiral_swe_n chains SEoA / NE
    / NW / SWoA legs of the three-or-up model; spiral_lrud chains
    quadrant-path legs on any model whose atoms meet every quadrant.  Other
    models raise.  Returns None when the construction cannot be completed
    inside the window; that is one-sided (a cycle may still exist).
    """
    _require_2d(env)
    if m < 1:
        raise ValidationError("box radius must be >= 1")
    if env.measure is None:
        raise ValidationError("cycle construction needs a grid with a known measure")
    strategy = _construction(env.measure)
    if strategy is None:
        raise ValidationError("no cycle construction applies to this model")
    mc = m + 2
    window = env.window
    if not (window.contains((-mc, mc)) and window.contains((mc, -mc))):
        raise ValidationError("window too small for the padded construction box")
    movers = _quadrant_movers(env, seed)
    if strategy == ORTHANT:
        return _orthant_cycle(env, m, mc, movers)

    # Legs circle the padded ring counterclockwise from near the SW corner:
    # under the box, up the right, over the top, down the left, then a
    # second lap.  Each leg's quadrant keeps it on its own side of the box,
    # so any prefix of the spiral is box-free; window exits just truncate
    # the trace and leave the splice to close the loop.  The whole
    # construction retries from a few shifted corners because a corner with
    # poor local connectivity can strand the splice.
    ring_legs = [
        ("SE", lambda s: s[0] >= mc),
        ("NE", lambda s: s[1] >= mc),
        ("NW", lambda s: s[0] <= -mc),
        ("SW", lambda s: s[1] <= -mc),
        ("SE", lambda s: s[0] >= mc),
        ("NE", lambda s: s[1] >= mc),
        ("NW", lambda s: s[0] <= -mc),
    ]
    legs = ring_legs
    if strategy == SPIRAL_SWE_N:
        movers["SEOA"] = _seoa_mover(env, eastward=True)
        movers["SWOA"] = _seoa_mover(env, eastward=False)
        legs = [("SEOA" if name == "SE" else "SWOA" if name == "SW" else name, stop)
                for name, stop in ring_legs]

    starts = [(-mc, -mc), (-mc - 2, -mc - 1), (-mc - 1, -mc - 3), (-mc - 4, -mc - 4)]
    for start in starts:
        if not window.contains(start):
            continue
        trace, anchors, exit_reason = _trace_legs(env, start, legs, movers)
        if exit_reason == EXIT_CYCLE:
            loop = trace[trace.index(trace[-1]):]
            cycle = _verify_cycle(env, loop, m, strategy)
            if cycle is not None:
                return cycle
        cycle = _splice_cycle(env, trace, anchors, m, mc, strategy)
        if cycle is not None:
            return cycle
    return None


def _orthant_cycle(env, m, mc, movers) -> Optional[OpenCycle]:
    """Closing through the restricted clusters of the all-or-nothing model.

    Find an up-left-right cluster hanging from the top boundary strictly
    right of the box and reaching the bottom, its mirror (down-left-right)
    strictly left of the box reaching the top, then connect them with the
    SE quadrant path below the box and the NW one above it.  No NE or SW
    site carries both arrows of either quadrant, so these paths draw no
    tiebreak.
    """
    window = env.window
    (wx0, wy0), (wx1, wy1) = window.lo, window.hi

    def find_cluster(upward: bool) -> Optional[tuple[Site, dict]]:
        # the up-left-right (or down-left-right) moves only
        excluded = BIT_S if upward else BIT_N
        # one table for every candidate column: only the search's origin changes
        table = _bfs_table(EnvironmentGrid(window, env.arrows & ~np.uint16(excluded)),
                           BACKWARD)
        far_edge = wy0 if upward else wy1
        col_range = (range(mc + 1, wx1) if upward else range(-mc - 1, wx0, -1))
        y_anchor = mc if upward else -mc
        for j in col_range:
            target = (j, y_anchor)
            parents: dict[Site, Optional[Site]] = {}
            for site, parent in _bfs_run(table, target):
                if abs(site[1]) <= mc and (site[0] <= mc if upward else site[0] >= -mc):
                    break  # cluster crowds the box; try next column
                parents[site] = parent
            else:
                if any(site[1] == far_edge for site in parents):
                    return target, parents
        return None

    up = find_cluster(upward=True)
    if up is None:
        return None
    down = find_cluster(upward=False)
    if down is None:
        return None
    (j_up, parents_up) = (up[0][0], up[1])
    (j_dn, parents_dn) = (down[0][0], down[1])

    def run_until(mover, start, members) -> Optional[list[Site]]:
        sites = [start]
        if _walk(window, sites, {start}, mover, members.__contains__) == _EXIT_STOP:
            return sites
        return None

    se_leg = run_until(movers["SE"], (j_dn, -mc), parents_up)
    if se_leg is None:
        return None
    up_chain = _path_to_root(parents_up, se_leg[-1])
    nw_leg = run_until(movers["NW"], (j_up, mc), parents_dn)
    if nw_leg is None:
        return None
    dn_chain = _path_to_root(parents_dn, nw_leg[-1])
    candidate = se_leg + up_chain[1:] + nw_leg[1:] + dn_chain[1:]
    return _verify_cycle(env, candidate, m, ORTHANT)


def _step_lines(sites) -> list[str]:
    return [f"step {i} {a[0]} {a[1]} {token_of(step_mask((b[0] - a[0], b[1] - a[1])))}"
            for i, (a, b) in enumerate(zip(sites, sites[1:]))]


def trace_dump_lines(trace: PathTrace) -> list[str]:
    """Wire format: one `step <i> <x> <y> <dir>` line per step, then the exit."""
    out = _step_lines(trace.sites)
    out.append(f"exit {len(trace.sites) - 1} "
               f"{trace.sites[-1][0]} {trace.sites[-1][1]} {trace.exit_reason}")
    return out


def cycle_dump_lines(cycle: OpenCycle) -> list[str]:
    """Trace lines of the closed path plus a closing record with the box."""
    out = _step_lines(cycle.sites)
    out.append(f"cycle {len(cycle.sites) - 1} winding {cycle.winding} "
               f"box -{cycle.box_radius}:{cycle.box_radius}")
    return out


@dataclass(frozen=True)
class GiganticReport:
    found: bool
    cycle: Optional[OpenCycle]
    checks: dict[str, bool]
    notes: tuple[str, ...]

    @property
    def checks_passed(self) -> bool:
        return self.found and all(self.checks.values())


def detect_gigantic_m(
    env: EnvironmentGrid,
    m: int,
    samples: int = 10,
    seed: int = 0,
) -> GiganticReport:
    """Search for an open cycle around [-m, m]^2 and verify its consequences.

    Requires a model with almost-surely infinite forward clusters.  When a
    cycle is found, checks inside the window that sampled cycle sites
    communicate with the whole cycle, that forward clusters of sampled box
    sites cover the cycle, and that backward clusters of cycle sites do.  It
    draws up to samples cycle sites and samples box sites; their forward
    fixpoints run as one reach_batch and the cycle sites' backward ones as
    another.  A negative samples raises ValidationError.
    A missing cycle is reported as not found; the construction has
    one-sided error, so this is never proof of absence.
    """
    if samples < 0:
        raise ValidationError("samples must be non-negative")
    _require_2d(env)
    if env.measure is None:
        raise ValidationError("gigantic detection needs a grid with a known measure")
    ok, _ = theta_plus_is_one(env.measure)
    if not ok:
        raise ValidationError(
            "gigantic detection applies to models with almost-surely infinite forward clusters"
        )
    strategy = _construction(env.measure)
    if strategy is None:
        return GiganticReport(False, None, {}, ("no cycle construction applies to this model",))

    cycle = build_open_cycle(env, m, seed=seed)
    if cycle is None:
        return GiganticReport(False, None, {}, (f"strategy {strategy} found no cycle",))

    cyc_sites = list(dict.fromkeys(cycle.sites[:-1]))
    gen = np.random.default_rng(rng.spawn_seed(seed, 0x916A))
    k = min(samples, len(cyc_sites))
    picked = [cyc_sites[i] for i in
              sorted(gen.choice(len(cyc_sites), size=k, replace=False).tolist())]
    box_sites = [(int(gen.integers(-m, m + 1)), int(gen.integers(-m, m + 1)))
                 for _ in range(samples)]
    # window indices of the n starts (the picked cycle sites, then the box
    # sites) and then of the whole cycle
    n = k + samples
    ix, iy = (np.array(picked + box_sites + cyc_sites, dtype=np.intp) - env.window.lo).T
    moves = move_masks(env.arrows)[:, None]
    edge = edge_mask(*env.window.shape)
    fwd, _ = reach_batch(moves, ix[:n], iy[:n], edge)
    bwd, _ = reach_batch(reversed_moves(moves), ix[:k], iy[:k], edge)
    # (start, cycle site) membership of each start's forward and backward set
    fwd_on, bwd_on = (unpack_words(sets, env.window.shape[0])[:, ix[n:], iy[n:]]
                      for sets in (fwd, bwd))
    checks = {
        "cycle_sites_mutually_communicate": bool((fwd_on[:k] & bwd_on).all()),
        "forward_clusters_cover_cycle": bool(fwd_on[k:].all()),
        "backward_clusters_cover_cycle": bool(bwd_on.all()),
    }
    return GiganticReport(True, cycle, checks, ())
