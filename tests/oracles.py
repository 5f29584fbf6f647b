"""Independent reference implementations used only to check the library.

Kept deliberately naive: the float definition of a site draw, transitive
closure by boolean matrix powering for reachability, a site-by-site search
of the oriented triangular lattice, a direct recursive self-avoiding-walk
count, and a brute-force witness search.  Nothing here shares code with
the package beyond the site hash that defines the environments.
"""

from __future__ import annotations

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


def oracle_touches(env: EnvironmentGrid, sites: set) -> bool:
    return any(env.window.on_edge(s) for s in sites)


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
