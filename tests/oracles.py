"""Independent reference implementations used only to check the library.

Kept deliberately naive: the float definition of a site draw, transitive
closure by boolean matrix powering for reachability, a column-by-column
scan of a backward cluster's census, a breadth-first search that skips
forbidden sites by predicate, a site-by-site search of the
oriented triangular lattice, a direct recursive self-avoiding-walk
count, a brute-force witness search, a move-by-move walk of a blocking
function's contour, a vertex-by-vertex scan of that contour, and the lazy
walks one trial and one site at a time.  Nothing here shares code with
the package beyond the site hash that defines the environments.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

from dre.directions import all_directions
from dre.env import EnvironmentGrid
from dre.rng import hash_parts, spawn_seed


def float_atoms(probs, seed, parts):
    """Atom index of the draws keyed on (seed, parts), by the float definition.

    The uniform is u = (h >> 11) 2^-53 for the site hash h, and the atom is
    the number of cumulative sums at or below u, with the last sum pinned
    to 1 so that float dust at the top cannot lose the last atom.
    """
    u = (hash_parts(seed, parts) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    cum = np.cumsum(np.asarray(probs, dtype=np.float64))
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="right")


def window_sites(env: EnvironmentGrid) -> list[tuple]:
    ranges = [range(env.window.lo[i], env.window.hi[i] + 1) for i in range(env.d)]
    return [tuple(reversed(s)) for s in product(*reversed(ranges))]


def closure_matrix(env: EnvironmentGrid) -> tuple[list[tuple], np.ndarray]:
    """Reflexive-transitive closure of the open-arrow relation on the window."""
    sites = window_sites(env)
    index = {s: i for i, s in enumerate(sites)}
    n = len(sites)
    adj = np.eye(n, dtype=bool)
    for s in sites:
        mask = env.mask_at(s)
        for dn in all_directions(env.d):
            if mask & (1 << dn.bit(env.d)):
                t = tuple(c + v for c, v in zip(s, dn.step(env.d)))
                if t in index:
                    adj[index[s], index[t]] = True
    closure = adj
    while True:
        nxt = closure | (closure @ closure)
        if np.array_equal(nxt, closure):
            return sites, closure
        closure = nxt


def oracle_cluster_sets(env: EnvironmentGrid, x: tuple):
    sites, closure = closure_matrix(env)
    index = {s: i for i, s in enumerate(sites)}
    ix = index[x]
    fwd = {s for s, i in index.items() if closure[ix, i]}
    bwd = {s for s, i in index.items() if closure[i, ix]}
    return fwd, bwd, fwd & bwd


def oracle_bfs_pairs(env: EnvironmentGrid, origin: tuple, forward: bool,
                     forbidden=None) -> list[tuple]:
    """(site, parent) pairs of a breadth-first search, in discovery order.

    The search the package ran before its box became seen sites: neighbors
    are tried in the order of all_directions, along open arrows (forward)
    or against them (backward), and a found site for which forbidden(site)
    holds is marked seen but never yielded or entered.  The origin comes
    first with parent None, whatever forbidden says of it.
    """
    d = env.d
    pairs = [(origin, None)]
    seen = {origin}
    queue = [origin]
    for site in queue:
        for dn in all_directions(d):
            step = dn.step(d) if forward else dn.negate().step(d)
            nxt = tuple(c + v for c, v in zip(site, step))
            if nxt in seen or not env.window.contains(nxt):
                continue
            if not env.mask_at(site if forward else nxt) & (1 << dn.bit(d)):
                continue
            seen.add(nxt)
            if forbidden is None or not forbidden(nxt):
                pairs.append((nxt, site))
                queue.append(nxt)
    return pairs


def oracle_touches(env: EnvironmentGrid, sites: set) -> bool:
    return any(env.window.on_edge(s) for s in sites)


def census_columns(sites: set, lo: tuple, hi: tuple):
    """Per column of the box lo..hi: the complement intervals and blocking values.

    For the cluster sites inside the box, returns (intervals, upper, lower)
    as classify_b_shape defines them: each column's interval is
    (x, lowest missing y, highest missing y, whether every y in between is
    missing), or (x, None, None, True) when no y is missing; upper is the
    highest cluster y per column (lo_y - 1 when none), lower the lowest
    (hi_y + 1 when none).
    """
    intervals, upper, lower = [], [], []
    for x in range(lo[0], hi[0] + 1):
        missing = []
        members = []
        for y in range(lo[1], hi[1] + 1):
            if (x, y) in sites:
                members.append(y)
            else:
                missing.append(y)
        if missing:
            a, b = min(missing), max(missing)
            intervals.append((x, a, b, len(missing) == b - a + 1))
        else:
            intervals.append((x, None, None, True))
        upper.append(max(members) if members else lo[1] - 1)
        lower.append(min(members) if members else hi[1] + 1)
    return tuple(intervals), tuple(upper), tuple(lower)


def oracle_verify_blocking(env: EnvironmentGrid, w) -> tuple:
    """(ok, first offending edge) of a blocking function, by a whole-window scan.

    Every (site, direction) with the arrow open, the site strictly beyond
    the function and the target inside the window is tested against the
    function's value at the target column, with int64 coordinate grids;
    the lexicographically first offending (source, target) edge is
    returned, or None.
    """
    (x0, y0), (x1, y1) = env.window.lo, env.window.hi
    wvals = np.array(w.values, dtype=np.int64)
    xs = np.arange(x0, x1 + 1, dtype=np.int64)
    ys = np.arange(y0, y1 + 1, dtype=np.int64)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    upper = w.side == "upper"
    far = Y > wvals[:, None] if upper else Y < wvals[:, None]
    violations = []
    for dn in all_directions(2):
        dx, dy = dn.step(2)
        has = (env.arrows & np.uint16(1 << dn.bit(2))).astype(bool) & far
        tx, ty = X + dx, Y + dy
        has &= (tx >= x0) & (tx <= x1) & (ty >= y0) & (ty <= y1)
        tw = wvals[np.clip(tx - x0, 0, x1 - x0)]
        crossing = has & ((ty <= tw) if upper else (ty >= tw))
        for ix, iy in np.argwhere(crossing):
            src = (int(xs[ix]), int(ys[iy]))
            violations.append((src, (src[0] + dx, src[1] + dy)))
    if violations:
        return False, min(violations)
    return True, None


def vertex_constrained(v: tuple, w, five_move: bool, window) -> bool:
    """Whether a contour vertex has a potential crossing edge inside the window.

    Only such vertices are forced open by the in-window blocking property;
    vertices whose crossing targets leave the window are unconstrained.
    """
    n, k = v
    x0, x1 = w.columns
    if window.contains((n, k - 1)) and k - 1 <= w[n]:
        return True
    if n - 1 >= x0 and window.contains((n - 1, k)) and k <= w[n - 1]:
        return True
    if five_move and n + 1 <= x1 and window.contains((n + 1, k)) and k <= w[n + 1]:
        return True
    return False


def oracle_contour_vertex(env: EnvironmentGrid, w, vertices, open_mask: int,
                          five_move: bool):
    """The first contour vertex, in sequence order, that lies in the window,
    is not open and has an in-window crossing edge; None if there is none.

    One vertex at a time, with Window.contains and the site's mask.
    """
    for v in vertices:
        if not env.window.contains(v):
            continue
        if env.mask_at(v) == open_mask:
            continue
        if vertex_constrained(v, w, five_move, env.window):
            return v
    return None


# the contour moves as (column, height) steps, by name
CONTOUR_MOVES = {"Up": (0, 1), "Down": (0, -1), "Left": (-1, 0), "DiagNW": (-1, 1),
                 "DiagSW": (-1, -1)}


def oracle_boundary_sequence(w) -> tuple[tuple, tuple]:
    """(vertices, transition names) of an upper function's contour, one vertex at a time.

    From (x1, w(x1) + 1) leftwards: in each column descend with Down moves
    to the floor w(n) + 1, then climb with Up moves to w(n - 1) and leave by
    DiagNW, or leave by Left or DiagSW, by the sign of w(n - 1) - w(n).
    """
    x0, x1 = w.columns
    vertices, transitions = [], []

    def emit(v, tr=None):
        if tr is not None:
            transitions.append(tr)
        vertices.append(v)

    emit((x1, w[x1] + 1))
    for n in range(x1, x0 - 1, -1):
        k = vertices[-1][1]
        while k > w[n] + 1:  # descend along the right wall of a valley
            emit((n, k - 1), "Down")
            k -= 1
        if n == x0:
            break
        left = w[n - 1]
        if left > w[n]:
            while k < left:  # climb the left wall
                emit((n, k + 1), "Up")
                k += 1
            emit((n - 1, left + 1), "DiagNW")
        elif left == w[n]:
            emit((n - 1, k), "Left")
        else:
            emit((n - 1, k - 1), "DiagSW")
    return tuple(vertices), tuple(transitions)


def otsp_reach_oracle(p: float, radius: int, trials: int, master_seed: int,
                      origin_open: bool = False) -> list[bool]:
    """Per trial: does the origin's open cluster on the oriented triangular
    lattice meet x = -radius or y = radius?

    Site (x, y) of trial t is open when the draw keyed on
    (spawn_seed(master_seed, t), x, y) is atom 0 of (p, 1 - p) (the origin
    too, unless origin_open).  An open site steps W, N and NW; a closed
    one is a dead end.  The window is [-radius, 0] x [0, radius].
    """
    out = []
    for t in range(trials):
        seed = spawn_seed(master_seed, t)
        seen = {(0, 0)}
        stack = [(0, 0)]
        while stack:
            x, y = stack.pop()
            if not ((origin_open and (x, y) == (0, 0))
                    or float_atoms((p, 1.0 - p), seed, (x, y)) == 0):
                continue
            for nxt in ((x - 1, y), (x, y + 1), (x - 1, y + 1)):
                if nxt[0] >= -radius and nxt[1] <= radius and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        out.append(any(x == -radius or y == radius for x, y in seen))
    return out


def _ne_site(p: float, seed: int, t: int, a: int, b: int) -> bool:
    """Is the draw keyed on (seed, t, a, b) atom 0 of (p, 1 - p)?"""
    return int(hash_parts(seed, (t, a, b))) >> 11 < math.ceil(p * 2.0**53)


def wn_crossing_oracle(p: float, trials: int, levels: int, start_gap: int,
                       master_seed: int) -> tuple[int, dict, int]:
    """(crossings, count of each SE step dw, sum of the steps), one trial at a time.

    Site (level, col) of trial t is NE when the draw keyed on (master_seed,
    t, level, col) is atom 0 of (p, 1 - p).  At each level the SE column
    walks right through NE sites and stops on the first SW one; the lower
    edge extends left through NE sites when its own site is NE, else moves
    to the first NE site on its right.  A trial stops at the first level
    where the SE column is at or right of the edge.
    """
    crossings = 0
    counts: dict[int, int] = {}
    total = 0
    for t in range(trials):
        w, edge = -start_gap, 0
        for level in range(1, levels + 1):
            col = w
            while _ne_site(p, master_seed, t, level, col):
                col += 1
            counts[col - w] = counts.get(col - w, 0) + 1
            total += col - w
            w = col
            if _ne_site(p, master_seed, t, level, edge):
                while _ne_site(p, master_seed, t, level, edge - 1):
                    edge -= 1
            else:
                edge += 1
                while not _ne_site(p, master_seed, t, level, edge):
                    edge += 1
            if w >= edge:
                crossings += 1
                break
    return crossings, counts, total


def coalescence_oracle(p: float, x: tuple, y: tuple, trials: int, max_levels: int,
                       master_seed: int) -> tuple:
    """coalescence_stats' fields, one trial and one step at a time.

    Site (a, b) of trial t steps up when the draw keyed on (master_seed, t,
    a, b) is atom 0 of (p, 1 - p), else right.  The path on the lower
    anti-diagonal walks alone to the other's; then both step together,
    until they meet or max_levels steps have been taken.
    """
    def step(t, site):
        a, b = site
        return (a, b + 1) if _ne_site(p, master_seed, t, a, b) else (a + 1, b)

    met = 0
    levels: dict[int, int] = {}
    diffs = {-1: 0, 0: 0, 1: 0}
    for t in range(trials):
        a, b = tuple(x), tuple(y)
        while sum(a) < sum(b):
            a = step(t, a)
        while sum(b) < sum(a):
            b = step(t, b)
        for level in range(max_levels):
            if a == b:
                met += 1
                levels[level] = levels.get(level, 0) + 1
                break
            d0 = a[0] - b[0]
            a, b = step(t, a), step(t, b)
            diffs[a[0] - b[0] - d0] += 1
    steps = sum(diffs.values())
    freq = {k: (v / steps if steps else float("nan")) for k, v in diffs.items()}
    return trials, met, levels, freq, steps


def naive_saw_count(n: int) -> int:
    """Self-avoiding walks of length n on the square lattice, no tricks."""

    def walk(path: list, remaining: int) -> int:
        if remaining == 0:
            return 1
        x, y = path[-1]
        total = 0
        for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nxt not in path:
                total += walk(path + [nxt], remaining - 1)
        return total

    return walk([(0, 0)], n)


def brute_force_theta_plus_witness(measure) -> bool:
    """Any mutually orthogonal direction set meeting every atom?"""
    d = measure.d
    dirs = all_directions(d)
    masks = [m for m, _ in measure.atoms]
    for r in range(1, d + 1):
        for combo in combinations(dirs, r):
            axes = [dn.axis for dn in combo]
            if len(set(axes)) != len(axes):
                continue  # two directions share an axis: not orthogonal
            vmask = 0
            for dn in combo:
                vmask |= 1 << dn.bit(d)
            if all(m & vmask for m in masks):
                return True
    return False
