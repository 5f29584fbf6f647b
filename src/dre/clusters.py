"""Forward, backward, and communicating clusters on a window.

Conventions:

* The one BFS, bfs_parents, expands neighbors in the fixed order +e1, ...,
  +ed, -e1, ..., -ed so traversals are reproducible; the resulting site
  sets do not depend on the order.  It yields sites as it finds them, so a
  caller that has seen enough stops it by leaving its loop.
* Clusters never contain sites outside the window.  A cluster "touches the
  boundary" when it meets the window's edge ring: for a forward cluster any
  step leaving the window starts on the edge ring, and for a backward
  cluster an edge-ring site is exactly where unseen outside predecessors
  could attach.  Boundary contact is the finite-window proxy for being
  infinite everywhere in this package.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import add
from typing import Iterator, Optional

import numpy as np

from .bitgrid import (edge_mask, move_masks, pack_rows, reach_batch, reversed_moves,
                      unpack_words)
from .directions import BIT_W, EW_MASK, N_MASK, NE_MASK, all_directions
from .env import EnvironmentGrid, Site, Window, subgrid
from .errors import ConsistencyError, DimensionError, ValidationError

FORWARD = "forward"
BACKWARD = "backward"
COMMUNICATING = "communicating"


@dataclass(frozen=True)
class ClusterResult:
    kind: str
    origin: Site
    sites: frozenset[Site]
    touches_boundary: bool

    def __len__(self) -> int:
        return len(self.sites)


def _check_origin(env: EnvironmentGrid, x: Site) -> None:
    if len(x) != env.d:
        raise ValidationError(f"site {x} has wrong dimension for d={env.d}")
    if not env.window.contains(x):
        raise ValidationError(f"site {x} lies outside the window")


def bfs_parents(env: EnvironmentGrid, origin: Site,
                kind: str = FORWARD) -> Iterator[tuple[Site, Optional[Site]]]:
    """Breadth-first search along (FORWARD) or against (BACKWARD) open arrows.

    Yields (z, parent) for every window site z found, in discovery order:
    parent is the site z was found from, which is the previous site on an
    open path from origin (forward) or the next site on an open path from z
    to origin (backward); origin comes first, with parent None.  dict() of
    the pairs is the parent map; stopping after k pairs gives the first k.

    The search runs on a flat table of the window padded by a ring of sites
    marked as seen, so a step is an index offset and the ring stops every
    step that would leave the window.
    """
    return _bfs_run(_bfs_table(env, kind), origin)


@dataclass(frozen=True)
class _BfsTable:
    """What a search on one grid and kind reads, built once for any origin."""

    masks: list  # arrow masks of the padded window, C-order ravel
    seen: bytes  # seen flags to start from: the padding ring and the box
    strides: list  # index offset of a unit step along each axis
    lo: tuple  # the window corner that sits at index 1 of each axis
    moves: list  # (index offset, offset of the site whose arrow opens the step, bit, step)


def _bfs_table(env: EnvironmentGrid, kind: str, box: Optional[int] = None) -> _BfsTable:
    """The table of bfs_parents; with a box, the sites of [-box, box]^d start seen."""
    d = env.d
    padded = np.pad(env.arrows, 1)
    strides = [int(np.prod(padded.shape[a + 1:])) for a in range(d)]
    seen = np.zeros(env.arrows.shape, bool)
    if box is not None:
        seen[np.ix_(*(np.abs(np.arange(a, b + 1)) <= box
                      for a, b in zip(env.window.lo, env.window.hi)))] = True
    forward = kind == FORWARD
    moves = []
    for dn in all_directions(d):
        step = (dn if forward else dn.negate()).step(d)
        offset = sum(s * t for s, t in zip(step, strides))
        # a predecessor through arrow dn sits at site - dn and carries dn
        moves.append((offset, 0 if forward else offset, 1 << dn.bit(d), step))
    return _BfsTable(padded.ravel().tolist(), np.pad(seen, 1, constant_values=True).tobytes(),
                     strides, env.window.lo, moves)


def _bfs_run(table: _BfsTable, origin: Site) -> Iterator[tuple[Site, Optional[Site]]]:
    """bfs_parents from origin on a table from _bfs_table; origin comes first even in the box."""
    masks, moves = table.masks, table.moves
    seen = bytearray(table.seen)
    start = sum((c - a + 1) * t for c, a, t in zip(origin, table.lo, table.strides))
    seen[start] = 1
    yield origin, None
    queue = deque([(start, origin)])
    while queue:
        i, site = queue.popleft()
        for offset, source, bit, step in moves:
            j = i + offset
            if seen[j] or not masks[i + source] & bit:
                continue
            seen[j] = 1
            nxt = tuple(map(add, site, step))
            yield nxt, site
            queue.append((j, nxt))


def _cluster(env: EnvironmentGrid, x: Site, kind: str) -> ClusterResult:
    _check_origin(env, x)
    sites = dict(bfs_parents(env, x, kind))
    return ClusterResult(kind, x, frozenset(sites), any(map(env.window.on_edge, sites)))


def forward_cluster(env: EnvironmentGrid, x: Site) -> ClusterResult:
    """All window sites reachable from x along open arrows."""
    return _cluster(env, x, FORWARD)


def backward_cluster(env: EnvironmentGrid, y: Site) -> ClusterResult:
    """All window sites from which y is reachable along open arrows."""
    return _cluster(env, y, BACKWARD)


def communicating_cluster(env: EnvironmentGrid, x: Site) -> ClusterResult:
    """Sites that both reach x and are reached from x (within the window)."""
    sites = forward_cluster(env, x).sites & backward_cluster(env, x).sites
    return ClusterResult(COMMUNICATING, x, sites, any(map(env.window.on_edge, sites)))


# ---------------------------------------------------------------------------
# Blocking functions and the shape of backward clusters (d = 2)
# ---------------------------------------------------------------------------

UPPER = "upper"
LOWER = "lower"

FINITE = "Finite"
FULL_WINDOW = "FullWindow"
BLOCKED_ABOVE = "BlockedAbove"
BLOCKED_BELOW = "BlockedBelow"
INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class BlockingFunction:
    """Integer heights per column; upper kind blocks paths from above."""

    side: str
    columns: tuple[int, int]  # inclusive column range (x0, x1)
    values: tuple[int, ...]
    monotone_decreasing: bool

    def __post_init__(self):
        if self.side not in (UPPER, LOWER):
            raise ValidationError(f"blocking side must be upper/lower, got {self.side!r}")
        x0, x1 = self.columns
        if len(self.values) != x1 - x0 + 1:
            raise ValidationError("blocking function must cover every column")

    def __getitem__(self, column: int) -> int:
        x0, x1 = self.columns
        if not x0 <= column <= x1:
            raise KeyError(column)
        return self.values[column - x0]

    @staticmethod
    def from_values(side: str, columns: tuple[int, int], values) -> "BlockingFunction":
        vals = tuple(int(v) for v in values)
        mono = all(b <= a for a, b in zip(vals, vals[1:]))
        return BlockingFunction(side, columns, vals, mono)


@dataclass(frozen=True)
class BShapeReport:
    shape: str
    origin: Site
    blocking: Optional[BlockingFunction]
    # per column: (column, complement_min, complement_max, contiguous),
    # or (column, None, None, True) when the column is fully inside the cluster
    complement_intervals: tuple[tuple, ...]
    touches_boundary: bool
    cluster_size: int
    window: Optional["Window"] = None

    def record_lines(self) -> list[str]:
        lines = [f"shape={self.shape}",
                 f"origin={self.origin[0]},{self.origin[1]}",
                 f"touches_boundary={int(self.touches_boundary)}",
                 f"cluster_size={self.cluster_size}"]
        if self.blocking is not None:
            x0, x1 = self.blocking.columns
            lines.append(f"blocking_side={self.blocking.side}")
            lines.append(f"monotone_decreasing={int(self.blocking.monotone_decreasing)}")
            for n in range(x0, x1 + 1):
                lines.append(f"w[{n}]={self.blocking[n]}")
        return lines


def _require_2d(env: EnvironmentGrid) -> None:
    if env.d != 2:
        raise DimensionError(f"operation requires d=2, got d={env.d}")


def verify_blocking_function(
    env: EnvironmentGrid, w: BlockingFunction
) -> tuple[bool, Optional[tuple[Site, Site]]]:
    """Check that no open edge crosses the blocking function.

    A path from the far side to the near side must contain a crossing edge,
    so the single-edge scan is sufficient.  Only edges with both endpoints
    inside the window are checked; arrows leaving the window land on sites
    whose relation to the function is unknowable here.  Returns the
    lexicographically first offending (source, target) edge on failure.
    """
    _require_2d(env)
    (x0, y0), (x1, y1) = env.window.lo, env.window.hi
    if w.columns != (x0, x1):
        raise ValidationError("blocking function does not cover the window's columns")
    nx, ny = env.arrows.shape
    rows = np.arange(y0, y1 + 1)
    heights = np.array(w.values)[:, None]
    # the sites strictly beyond the function, on the side it blocks paths from
    far = rows > heights if w.side == UPPER else rows < heights
    first = None
    for dn in all_directions(2):
        dx, dy = dn.step(2)
        # sources whose step stays in the window, and their targets
        src = (slice(max(-dx, 0), nx - max(dx, 0)), slice(max(-dy, 0), ny - max(dy, 0)))
        dst = (slice(max(dx, 0), nx + min(dx, 0)), slice(max(dy, 0), ny + min(dy, 0)))
        crossing = far[src] & ~far[dst]
        crossing &= (env.arrows[src] & np.uint16(1 << dn.bit(2))) != 0
        if crossing.any():
            ix, iy = np.unravel_index(crossing.argmax(), crossing.shape)
            site = (x0 + src[0].start + int(ix), y0 + src[1].start + int(iy))
            edge = (site, (site[0] + dx, site[1] + dy))
            if first is None or edge < first:
                first = edge
    return first is None, first


def _column_ends(mask: np.ndarray) -> tuple[list, list, list]:
    """Per column of an (nx, ny) bool array: whether it has a set entry,
    and the first and last set row (0 in an empty column), as Python ints."""
    last = mask.shape[1] - 1 - mask[:, ::-1].argmax(axis=1)
    return mask.any(axis=1).tolist(), mask.argmax(axis=1).tolist(), last.tolist()


def classify_b_shape(env: EnvironmentGrid, x: Site,
                     inner: Optional[Window] = None) -> BShapeReport:
    """Classify the shape of the backward cluster of x on a window.

    Finite: no boundary contact.  FullWindow: every interior site belongs
    to the cluster.  BlockedAbove/BlockedBelow: every column where the
    complement is nonempty has complement reaching the top (resp. bottom)
    edge, and the extracted per-column envelope verifies as a blocking
    function.  Anything else is Indeterminate; near-critical windows
    legitimately end up there.

    When inner is given, paths run through the whole sampled grid but the
    classification reads membership only on the inner window.  Paths may
    then route through the margin, which removes the spurious complement
    dust that window truncation deposits along the edges; statistical
    users should sample with a margin and classify the core.  The
    backward reach stops once it holds the whole inner window (see
    reach_batch's goal), so a FullWindow report never fills the margin;
    every field of the report is read from the inner window, where the
    stopped set is exact.
    """
    _require_2d(env)
    _check_origin(env, x)

    window = env.window
    if inner is None:
        inner = window
    else:
        if not inner.is_subwindow_of(window):
            raise ValidationError("inner window must sit inside the sampled window")
        if not inner.contains(x):
            raise ValidationError("origin must lie in the inner window")

    sl = tuple(slice(a - oa, b - oa + 1)
               for a, b, oa in zip(inner.lo, inner.hi, window.lo))
    # the inner window, packed: one row of its columns on each of its rows
    row = np.zeros(window.shape[0], dtype=bool)
    row[sl[0]] = True
    edge = edge_mask(*window.shape)
    goal = np.zeros_like(edge)
    goal[sl[1]] = pack_rows(row)
    sets, _ = reach_batch(reversed_moves(move_masks(env.arrows)[:, None]),
                          x[0] - window.lo[0], x[1] - window.lo[1], edge, goal=goal)
    in_b = unpack_words(sets[0], window.shape[0])[sl]

    (x0, y0), (x1, y1) = inner.lo, inner.hi
    edge = np.zeros_like(in_b)
    edge[0, :] = edge[-1, :] = True
    edge[:, 0] = edge[:, -1] = True
    touched = bool((in_b & edge).any())

    out = ~in_b
    gaps, lo, hi = _column_ends(out)
    counts = out.sum(axis=1).tolist()
    intervals = tuple(
        (x0 + ix, lo[ix] + y0, hi[ix] + y0, counts[ix] == hi[ix] - lo[ix] + 1)
        if gaps[ix] else (x0 + ix, None, None, True)
        for ix in range(x1 - x0 + 1))

    cluster_size = int(in_b.sum())
    inner_env = env if inner is window else subgrid(env, inner)

    def make(shape, blocking):
        return BShapeReport(shape, x, blocking, intervals, touched,
                            cluster_size, inner)

    if not touched:
        return make(FINITE, None)

    interior = in_b[1:-1, 1:-1]
    if interior.all():
        return make(FULL_WINDOW, None)

    nonempty = [iv for iv in intervals if iv[1] is not None]

    if all(iv[2] == y1 for iv in nonempty):
        filled, _, top = _column_ends(in_b)
        values = [t + y0 if f else y0 - 1 for f, t in zip(filled, top)]
        w = BlockingFunction.from_values(UPPER, (x0, x1), values)
        ok, _ = verify_blocking_function(inner_env, w)
        if ok:
            return make(BLOCKED_ABOVE, w)

    if all(iv[1] == y0 for iv in nonempty):
        filled, bottom, _ = _column_ends(in_b)
        values = [b + y0 if f else y1 + 1 for f, b in zip(filled, bottom)]
        w = BlockingFunction.from_values(LOWER, (x0, x1), values)
        ok, _ = verify_blocking_function(inner_env, w)
        if ok:
            return make(BLOCKED_BELOW, w)

    return make(INDETERMINATE, None)


# ---------------------------------------------------------------------------
# Interval chains for the horizontal-or-up and NE-or-west models
# ---------------------------------------------------------------------------

EW_N_ATOMS = frozenset({EW_MASK, N_MASK})
NE_W_ATOMS = frozenset({NE_MASK, BIT_W})


@dataclass(frozen=True)
class IntervalChain:
    """Per-row slices of a backward cluster, rows counted downward from x.

    rows holds (n, L_n, U_n) for each computed level; a final (n, None, None)
    sentinel marks extinction.  truncated is set when the chain stopped at
    the window's side columns, where the rows below would be unreliable, or
    at its bottom row, and so holds exactly when the last row is no sentinel.
    """

    origin: Site
    model_atoms: frozenset[int]
    rows: tuple[tuple[int, Optional[int], Optional[int]], ...]
    truncated: bool


# measure support -> (the atom that carries a site up, the run that chains into
# a slice from its left, the run that chains into it from its right)
_CHAIN_RUNS = {EW_N_ATOMS: (N_MASK, EW_MASK, EW_MASK), NE_W_ATOMS: (NE_MASK, NE_MASK, BIT_W)}


def interval_chain(env: EnvironmentGrid, x: Site) -> IntervalChain:
    """Row-by-row construction of the backward cluster's horizontal slices.

    Built forward from the origin row by one row rule, independently of the
    BFS in backward_cluster; tests check the two agree slice-for-slice.  Row
    0 widens the origin through the run that chains in from the left and the
    run that chains in from the right.  The next row's core is the columns
    of the slice above; the row dies out unless its core holds a site that
    carries up.  Its slice starts at the first such site (sites left of it
    are horizontal on EW-N and chain in anyway, and walk away west on NE-W),
    ends at the core's right end, and widens through the runs again.  The
    chain stops, truncated, when a slice meets a side column or no row is
    left below.
    """
    _require_2d(env)
    _check_origin(env, x)
    if env.measure is None:
        raise ValidationError("interval chains need a grid with a known measure")
    atoms = frozenset(env.measure.support())
    if atoms not in _CHAIN_RUNS:
        raise ValidationError(
            "interval chains are defined for the horizontal/up and NE/west models only"
        )
    up, left_run, right_run = _CHAIN_RUNS[atoms]
    x0, y0 = env.window.lo
    last = env.window.shape[0] - 1

    def widen(row, lo, hi):
        while lo > 0 and row[lo - 1] == left_run:
            lo -= 1
        while hi < last and row[hi + 1] == right_run:
            hi += 1
        return lo, hi

    top = x[1] - y0
    lo, hi = widen(env.arrows[:, top].tolist(), x[0] - x0, x[0] - x0)
    rows: list[tuple[int, Optional[int], Optional[int]]] = [(0, lo + x0, hi + x0)]
    for n in range(1, top + 1):
        if lo == 0 or hi == last:
            break
        row = env.arrows[:, top - n].tolist()
        if up not in row[lo:hi + 1]:
            rows.append((n, None, None))
            break
        lo, hi = widen(row, row.index(up, lo, hi + 1), hi)
        if not lo <= hi:
            raise ConsistencyError(f"interval row {n} is empty but not a sentinel")
        rows.append((n, lo + x0, hi + x0))
    return IntervalChain(origin=x, model_atoms=atoms, rows=tuple(rows),
                         truncated=rows[-1][1] is not None)


def dn_trajectory(chain: IntervalChain) -> list[int]:
    """Interval widths (U_n - L_n + 1), 0 after extinction; horizontal/up model only."""
    if chain.model_atoms != EW_N_ATOMS:
        raise ValidationError("the width chain is defined for the horizontal/up model")
    out = []
    for n, L, U in chain.rows:
        if L is None:
            out.append(0)
        else:
            width = U - L + 1
            if width <= 0:
                raise ConsistencyError("nonempty row with nonpositive width")
            out.append(width)
    return out
