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
one-sided evidence only.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rng
from .bitgrid import PackedGrid
from .clusters import BACKWARD, FORWARD, _require_2d, bfs_parents
from .directions import (BIT_N, BIT_S, N_MASK, NE_MASK, QUADRANTS, SW_MASK, SWE_MASK,
                         all_directions, token_of)
from .env import EnvironmentGrid, Site, Window
from .errors import ModelAssumptionError, ValidationError
from .measure import SupportMeasure, theta_plus_is_one
from .models import require_p

EXIT_BOUNDARY = "HitBoundary"
EXIT_COALESCED = "Coalesced"
EXIT_CYCLE = "ClosedCycle"
EXIT_STEP_LIMIT = "StepLimit"

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
        return all(
            step_mask(tuple(b[i] - a[i] for i in range(2))) & env.mask_at(a)
            for a, b in zip(self.sites, self.sites[1:])
        )


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
    tiebreak_q: float = 0.5,
    seed: int = 0,
) -> PathTrace:
    """Follow arrows of one quadrant from start until the window ends.

    When both quadrant arrows are present the first listed (the vertical
    one) is taken with probability tiebreak_q, independently per visit from
    a private seeded stream.  A site carrying neither quadrant arrow
    violates the model assumption and raises.
    """
    _require_2d(env)
    if quadrant not in QUADRANTS:
        raise ValidationError(f"quadrant must be one of {sorted(QUADRANTS)}")
    if not env.window.contains(start):
        raise ValidationError(f"start {start} outside the window")
    first, second = QUADRANTS[quadrant]
    gen = np.random.default_rng(rng.spawn_seed(seed, 0x71AD))
    mover = _quadrant_mover(env, first, second, tiebreak_q, gen)
    return _follow(env, start, mover)


def _quadrant_mover(env, first, second, q, gen) -> Callable[[Site], Site]:
    b1 = 1 << first.bit(2)
    b2 = 1 << second.bit(2)
    s1, s2 = first.step(2), second.step(2)

    def mover(site: Site) -> Site:
        mask = env.mask_at(site)
        has1, has2 = mask & b1, mask & b2
        if has1 and has2:
            s = s1 if gen.random() < q else s2
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


def _follow(env, start, mover,
            collect_excursions=False) -> PathTrace | tuple[PathTrace, list[int]]:
    window = env.window
    limit = step_limit(window)
    sites = [start]
    seen = {start}
    excursions: list[int] = []
    vertical = 0
    site = start
    exit_reason = EXIT_STEP_LIMIT
    for _ in range(limit):
        try:
            nxt = mover(site)
        except _LeaveWindow:
            exit_reason = EXIT_BOUNDARY
            break
        if not window.contains(nxt):
            exit_reason = EXIT_BOUNDARY
            break
        if collect_excursions:
            dy = nxt[1] - site[1]
            if dy:
                vertical += dy
            else:
                excursions.append(vertical)
                vertical = 0
        sites.append(nxt)
        if nxt in seen:
            exit_reason = EXIT_CYCLE
            site = nxt
            break
        seen.add(nxt)
        site = nxt
    trace = PathTrace(tuple(sites), exit_reason)
    if collect_excursions:
        return trace, excursions
    return trace


class _LeaveWindow(Exception):
    pass


def _seoa_mover(env: EnvironmentGrid, eastward: bool) -> Callable[[Site], Site]:
    """Down if that lands on another three-arrow site, else sideways; up sites go up."""
    window = env.window
    side = (1, 0) if eastward else (-1, 0)

    def mover(site: Site) -> Site:
        mask = env.mask_at(site)
        if mask == N_MASK:
            return (site[0], site[1] + 1)
        if mask == SWE_MASK:
            below = (site[0], site[1] - 1)
            if not window.contains(below):
                raise _LeaveWindow
            if env.mask_at(below) == SWE_MASK:
                return below
            return (site[0] + side[0], site[1] + side[1])
        raise ModelAssumptionError(
            f"site {site} is not from the three-or-up model", site=site
        )

    return mover


def _check_swe_n(env: EnvironmentGrid) -> None:
    if env.measure is None or env.measure.support() != frozenset({SWE_MASK, N_MASK}):
        raise ModelAssumptionError("path family needs the three-or-up model")


def seoa_path(env: EnvironmentGrid, start: Site) -> tuple[PathTrace, list[int]]:
    """South-east-on-average path plus its vertical excursion samples.

    The excursion recorded before each east step is the net vertical
    displacement since the previous sideways step; its mean is
    -(p^3 - p^2 + 2p - 1) / (p(1-p)) with p the three-arrow probability.
    Never steps west.
    """
    _require_2d(env)
    _check_swe_n(env)
    if not env.window.contains(start):
        raise ValidationError(f"start {start} outside the window")
    return _follow(env, start, _seoa_mover(env, eastward=True), collect_excursions=True)


def swoa_path(env: EnvironmentGrid, start: Site) -> tuple[PathTrace, list[int]]:
    """Mirror image of seoa_path; never steps east."""
    _require_2d(env)
    _check_swe_n(env)
    if not env.window.contains(start):
        raise ValidationError(f"start {start} outside the window")
    return _follow(env, start, _seoa_mover(env, eastward=False), collect_excursions=True)


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
    and coalesce permanently once they meet.  The first-coordinate
    difference moves +1 or -1 with probability p(1-p) each while the paths
    are apart; its empirical step law is returned.
    """
    require_p(p)
    thresholds = rng.thresholds((p, 1.0 - p))
    met = 0
    meeting_levels: dict[int, int] = {}
    diff_counts = {-1: 0, 0: 0, 1: 0}
    diff_steps = 0

    def arrow_up(trial: int, site: Site) -> bool:
        return rng.atom_one(thresholds, master_seed, trial, site[0], site[1]) == 0

    for t in range(trials):
        a, b = tuple(x), tuple(y)
        if a == b:
            met += 1
            meeting_levels[0] = meeting_levels.get(0, 0) + 1
            continue
        # bring both to a common anti-diagonal level
        while a[0] + a[1] < b[0] + b[1]:
            a = (a[0], a[1] + 1) if arrow_up(t, a) else (a[0] + 1, a[1])
        while b[0] + b[1] < a[0] + a[1]:
            b = (b[0], b[1] + 1) if arrow_up(t, b) else (b[0] + 1, b[1])
        for level in range(max_levels):
            if a == b:
                met += 1
                meeting_levels[level] = meeting_levels.get(level, 0) + 1
                break
            d0 = a[0] - b[0]
            a = (a[0], a[1] + 1) if arrow_up(t, a) else (a[0] + 1, a[1])
            b = (b[0], b[1] + 1) if arrow_up(t, b) else (b[0] + 1, b[1])
            delta = (a[0] - b[0]) - d0
            diff_counts[delta] += 1
            diff_steps += 1
    freq = {k: (v / diff_steps if diff_steps else float("nan"))
            for k, v in diff_counts.items()}
    return CoalescenceStats(trials, met, meeting_levels, freq, diff_steps)


# ---------------------------------------------------------------------------
# Open cycles and gigantic communicating components
# ---------------------------------------------------------------------------

SPIRAL_LRUD = "spiral_lrud"
SPIRAL_SWE_N = "spiral_swe_n"
ORTHANT = "orthant"

_STRATEGIES = (SPIRAL_LRUD, SPIRAL_SWE_N, ORTHANT)


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


def _splice_cycle(env, trace, anchor_indices, m, mc, strategy,
                  max_z_per_anchor: int = 8) -> Optional[OpenCycle]:
    """Close a partial spiral through an open path that avoids the box.

    The traced legs passed under the box, so the splice from a late trace
    site z back to an early anchor must return over the top or the loop has
    winding zero.  For each candidate pair the path is routed through a
    waypoint in the strip above the box: forward tree from z meets backward
    tree into the anchor inside the strip.  A direct (waypoint-free) splice
    is kept as a fallback; the winding check on every candidate decides.
    """

    def in_box(site):
        return abs(site[0]) <= m and abs(site[1]) <= m

    n = len(trace)
    for a_idx in anchor_indices:
        if a_idx >= n:
            continue
        anchor = trace[a_idx]
        if in_box(anchor):
            continue
        into_anchor = bfs_parents(env, anchor, BACKWARD, in_box)
        if len(into_anchor) < 2:
            continue
        tried = 0
        for j in range(n - 1, a_idx, -1):
            z = trace[j]
            if z not in into_anchor:
                continue
            tried += 1
            if tried > max_z_per_anchor:
                break
            from_z = bfs_parents(env, z, FORWARD, in_box)
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


def _trace_legs(env, start, legs, movers) -> tuple[list[Site], list[int], Optional[list[Site]]]:
    """Chain legs from start; returns (trace, leg start indices, self-closure).

    legs is a list of (mover name, stop predicate).  A leg ends at the first
    site satisfying its predicate; window exits and step limits end the
    whole trace.  If any step lands on an earlier trace site the closed
    loop is returned as the third element.
    """
    window = env.window
    limit = step_limit(window)
    trace = [start]
    index_of = {start: 0}
    anchors = [0]
    site = start
    for mover_name, stop in legs:
        mover = movers[mover_name]
        steps = 0
        while not stop(site):
            try:
                nxt = mover(site)
            except _LeaveWindow:
                return trace, anchors, None
            if not window.contains(nxt):
                return trace, anchors, None
            trace.append(nxt)
            if nxt in index_of:
                loop = trace[index_of[nxt]:]
                return trace, anchors, loop
            index_of[nxt] = len(trace) - 1
            site = nxt
            steps += 1
            if steps > limit:
                return trace, anchors, None
        anchors.append(len(trace) - 1)
    return trace, anchors, None


def _quadrant_movers(env, tiebreak_q, seed):
    gen = np.random.default_rng(rng.spawn_seed(seed, 0xC1C1E))
    return {
        name: _quadrant_mover(env, QUADRANTS[name][0], QUADRANTS[name][1],
                              tiebreak_q, gen)
        for name in QUADRANTS
    }


def _atoms_cover_all_quadrants(measure: SupportMeasure) -> bool:
    quads = [(1 << a.bit(2)) | (1 << b.bit(2)) for a, b in QUADRANTS.values()]
    return all(all(m & q for q in quads) for m, _ in measure.atoms)


def build_open_cycle(
    env: EnvironmentGrid,
    m: int,
    strategy: str,
    tiebreak_q: float = 0.5,
    seed: int = 0,
) -> Optional[OpenCycle]:
    """Try to construct a verified open cycle enclosing [-m, m]^2.

    spiral_lrud chains quadrant-path legs (any model whose atoms meet every
    quadrant); spiral_swe_n chains SEoA / NE / NW / SWoA legs of the
    three-or-up model; orthant closes through the up-left-right cluster of
    the all-positive/all-negative model.  Returns None when the
    construction cannot be completed inside the window; that is one-sided
    (a cycle may still exist).
    """
    _require_2d(env)
    if strategy not in _STRATEGIES:
        raise ValidationError(f"strategy must be one of {_STRATEGIES}")
    if m < 1:
        raise ValidationError("box radius must be >= 1")
    if env.measure is None:
        raise ValidationError("cycle construction needs a grid with a known measure")
    mc = m + 2
    support = env.measure.support()
    window = env.window
    if not (window.contains((-mc, mc)) and window.contains((mc, -mc))):
        raise ValidationError("window too small for the padded construction box")

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
    if strategy == SPIRAL_LRUD:
        if not _atoms_cover_all_quadrants(env.measure):
            raise ValidationError("spiral_lrud needs every atom to meet every quadrant")
        movers = _quadrant_movers(env, tiebreak_q, seed)
        legs = ring_legs
    elif strategy == SPIRAL_SWE_N:
        if support != frozenset({SWE_MASK, N_MASK}):
            raise ValidationError("spiral_swe_n needs the three-or-up model")
        movers = _quadrant_movers(env, tiebreak_q, seed)
        movers["SEOA"] = _seoa_mover(env, eastward=True)
        movers["SWOA"] = _seoa_mover(env, eastward=False)
        legs = [("SEOA" if name == "SE" else "SWOA" if name == "SW" else name, stop)
                for name, stop in ring_legs]
    else:
        if support != frozenset({NE_MASK, SW_MASK}):
            raise ValidationError("the orthant construction needs the NE-SW model")
        return _orthant_cycle(env, m, mc)

    starts = [(-mc, -mc), (-mc - 2, -mc - 1), (-mc - 1, -mc - 3), (-mc - 4, -mc - 4)]
    for start in starts:
        if not window.contains(start):
            continue
        trace, anchors, loop = _trace_legs(env, start, legs, movers)
        if loop is not None:
            cycle = _verify_cycle(env, loop, m, strategy)
            if cycle is not None:
                return cycle
        cycle = _splice_cycle(env, trace, anchors, m, mc, strategy)
        if cycle is not None:
            return cycle
    return None


def _orthant_cycle(env, m, mc) -> Optional[OpenCycle]:
    """Closing through the restricted clusters of the all-or-nothing model.

    Find an up-left-right cluster hanging from the top boundary strictly
    right of the box and reaching the bottom, its mirror (down-left-right)
    strictly left of the box reaching the top, then connect them with the
    deterministic SE path below the box and NW path above it.
    """
    window = env.window
    (wx0, wy0), (wx1, wy1) = window.lo, window.hi

    # The BFS stays here rather than in clusters.bfs_parents: it stops at the
    # first site that enters the strip beside the box, and most candidate
    # columns fail that way early.  The shared BFS on an arrow-filtered grid
    # gives the same cycles but explores each failing cluster in full, which
    # makes the construction over ten times slower.
    def find_cluster(upward: bool) -> Optional[tuple[Site, dict]]:
        excluded = BIT_S if upward else BIT_N
        far_edge = wy0 if upward else wy1
        col_range = (range(mc + 1, wx1) if upward else range(-mc - 1, wx0, -1))
        y_anchor = mc if upward else -mc
        for j in col_range:
            target = (j, y_anchor)
            parents: dict[Site, Optional[Site]] = {target: None}
            queue = deque([target])
            reached_far = False
            spilled = False
            while queue and not spilled:
                site = queue.popleft()
                for (dx, dy), bit in _STEP_BIT.items():
                    if bit == excluded:
                        continue
                    prev = (site[0] - dx, site[1] - dy)
                    if prev in parents or not window.contains(prev):
                        continue
                    if env.mask_at(prev) & bit:
                        if abs(prev[1]) <= mc and (prev[0] <= mc if upward else prev[0] >= -mc):
                            spilled = True  # cluster crowds the box; try next column
                            break
                        parents[prev] = site
                        queue.append(prev)
                        if prev[1] == far_edge:
                            reached_far = True
            if reached_far and not spilled:
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

    def se_mover(site):
        mask = env.mask_at(site)
        if mask == NE_MASK:
            return (site[0] + 1, site[1])
        if mask == SW_MASK:
            return (site[0], site[1] - 1)
        raise ModelAssumptionError(f"site {site} not from the orthant model", site=site)

    def nw_mover(site):
        mask = env.mask_at(site)
        if mask == NE_MASK:
            return (site[0], site[1] + 1)
        if mask == SW_MASK:
            return (site[0] - 1, site[1])
        raise ModelAssumptionError(f"site {site} not from the orthant model", site=site)

    limit = step_limit(window)

    def run_until(mover, start, members) -> Optional[list[Site]]:
        sites = [start]
        site = start
        for _ in range(limit):
            if site in members:
                return sites
            nxt = mover(site)
            if not window.contains(nxt):
                return None
            sites.append(nxt)
            site = nxt
        return None

    start = (j_dn, -mc)
    se_leg = run_until(se_mover, start, parents_up)
    if se_leg is None:
        return None
    up_chain = _path_to_root(parents_up, se_leg[-1])
    nw_leg = run_until(nw_mover, (j_up, mc), parents_dn)
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
    sites cover the cycle, and that backward clusters of cycle sites do.
    A missing cycle is reported as not found; the construction has
    one-sided error, so this is never proof of absence.
    """
    _require_2d(env)
    if env.measure is None:
        raise ValidationError("gigantic detection needs a grid with a known measure")
    ok, _ = theta_plus_is_one(env.measure)
    if not ok:
        raise ValidationError(
            "gigantic detection applies to models with almost-surely infinite forward clusters"
        )
    support = env.measure.support()
    if support == frozenset({NE_MASK, SW_MASK}):
        strategy = ORTHANT
    elif support == frozenset({SWE_MASK, N_MASK}):
        strategy = SPIRAL_SWE_N
    elif _atoms_cover_all_quadrants(env.measure):
        strategy = SPIRAL_LRUD
    else:
        return GiganticReport(False, None, {}, ("no cycle construction applies to this model",))

    cycle = build_open_cycle(env, m, strategy, seed=seed)
    if cycle is None:
        return GiganticReport(False, None, {}, (f"strategy {strategy} found no cycle",))

    pg = PackedGrid.from_env(env)
    (x0, y0) = env.window.lo
    cyc_sites = list(dict.fromkeys(cycle.sites[:-1]))
    packed_cycle = np.zeros_like(pg.edge)
    for (sx, sy) in cyc_sites:
        ix, iy = sx - x0, sy - y0
        packed_cycle[iy, ix // 64] |= np.uint64(1) << np.uint64(ix % 64)

    def covers(r) -> bool:
        return bool(np.array_equal(r & packed_cycle, packed_cycle))

    gen = np.random.default_rng(rng.spawn_seed(seed, 0x916A))
    k = min(samples, len(cyc_sites))
    picked = [cyc_sites[i] for i in
              sorted(gen.choice(len(cyc_sites), size=k, replace=False).tolist())]
    mutual = True
    backward_covers = True
    for (sx, sy) in picked:
        rf, _ = pg.reach(sx - x0, sy - y0, backward=False)
        rb, _ = pg.reach(sx - x0, sy - y0, backward=True)
        if not covers(rf & rb):
            mutual = False
        if not covers(rb):
            backward_covers = False

    forward_covers = True
    box_sites = [(int(gen.integers(-m, m + 1)), int(gen.integers(-m, m + 1)))
                 for _ in range(samples)]
    for (sx, sy) in box_sites:
        rf, _ = pg.reach(sx - x0, sy - y0, backward=False)
        if not covers(rf):
            forward_covers = False

    checks = {
        "cycle_sites_mutually_communicate": mutual,
        "forward_clusters_cover_cycle": forward_covers,
        "backward_clusters_cover_cycle": backward_covers,
    }
    return GiganticReport(True, cycle, checks, ())
