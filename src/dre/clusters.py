"""Forward, backward, and communicating clusters on a window.

Conventions:

* BFS expands neighbors in the fixed order +e1, ..., +ed, -e1, ..., -ed
  so traversals are reproducible; the resulting site sets do not depend
  on the order.
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
from typing import Callable, Optional

import numpy as np

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


def bfs_parents(env: EnvironmentGrid, origin: Site, kind: str = FORWARD,
                forbidden: Optional[Callable[[Site], bool]] = None) -> dict[Site, Optional[Site]]:
    """Breadth-first search along (FORWARD) or against (BACKWARD) open arrows.

    Returns the parent map of every window site found, in discovery order:
    parents[z] is the site z was found from, which is the previous site on
    an open path from origin (forward) or the next site on an open path
    from z to origin (backward); origin maps to None.  Sites for which
    forbidden(site) holds are never entered.
    """
    window = env.window
    dirs = all_directions(env.d)
    forward = kind == FORWARD
    steps = [(dn if forward else dn.negate()).step(env.d) for dn in dirs]
    bits = [1 << dn.bit(env.d) for dn in dirs]
    parents: dict[Site, Optional[Site]] = {origin: None}
    queue = deque([origin])
    while queue:
        site = queue.popleft()
        mask = env.mask_at(site) if forward else 0
        for step, bit in zip(steps, bits):
            if forward and not mask & bit:
                continue
            nxt = tuple(c + s for c, s in zip(site, step))
            if nxt in parents or not window.contains(nxt):
                continue
            # a predecessor through arrow dn sits at site - dn and carries dn
            if not forward and not env.mask_at(nxt) & bit:
                continue
            if forbidden is not None and forbidden(nxt):
                continue
            parents[nxt] = site
            queue.append(nxt)
    return parents


def _cluster(env: EnvironmentGrid, x: Site, kind: str) -> ClusterResult:
    _check_origin(env, x)
    sites = bfs_parents(env, x, kind)
    return ClusterResult(kind, x, frozenset(sites), any(map(env.window.on_edge, sites)))


def forward_cluster(env: EnvironmentGrid, x: Site) -> ClusterResult:
    """All window sites reachable from x along open arrows."""
    return _cluster(env, x, FORWARD)


def backward_cluster(env: EnvironmentGrid, y: Site) -> ClusterResult:
    """All window sites from which y is reachable along open arrows."""
    return _cluster(env, y, BACKWARD)


def communicating_cluster(env: EnvironmentGrid, x: Site) -> ClusterResult:
    """Sites that both reach x and are reached from x (within the window)."""
    fwd = forward_cluster(env, x)
    bwd = backward_cluster(env, x)
    return ClusterResult(
        COMMUNICATING, x, fwd.sites & bwd.sites,
        fwd.touches_boundary or bwd.touches_boundary,
    )


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
    wvals = np.array(w.values, dtype=np.int64)  # indexed by column - x0
    xs = np.arange(x0, x1 + 1, dtype=np.int64)
    ys = np.arange(y0, y1 + 1, dtype=np.int64)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    wa = wvals[:, None]
    if w.side == UPPER:
        far = Y > wa
    else:
        far = Y < wa
    arr = env.arrows
    violations = []
    for dn in all_directions(2):
        bit = 1 << dn.bit(2)
        dx, dy = dn.step(2)
        has = (arr & np.uint16(bit)).astype(bool) & far
        tx, ty = X + dx, Y + dy
        inside = (tx >= x0) & (tx <= x1) & (ty >= y0) & (ty <= y1)
        has &= inside
        tw = wvals[np.clip(tx - x0, 0, x1 - x0)]
        if w.side == UPPER:
            crossing = has & (ty <= tw)
        else:
            crossing = has & (ty >= tw)
        if crossing.any():
            for ix, iy in np.argwhere(crossing):
                src = (int(xs[ix]), int(ys[iy]))
                violations.append((src, (src[0] + dx, src[1] + dy)))
    if violations:
        return False, min(violations)
    return True, None


def classify_b_shape(env: EnvironmentGrid, x: Site,
                     inner: Optional[Window] = None) -> BShapeReport:
    """Classify the shape of the backward cluster of x on a window.

    Finite: no boundary contact.  FullWindow: every interior site belongs
    to the cluster.  BlockedAbove/BlockedBelow: every column where the
    complement is nonempty has complement reaching the top (resp. bottom)
    edge, and the extracted per-column envelope verifies as a blocking
    function.  Anything else is Indeterminate; near-critical windows
    legitimately end up there.

    When inner is given, membership is computed on the whole sampled grid
    but the classification reads only the inner window.  Paths may then
    route through the margin, which removes the spurious complement dust
    that window truncation deposits along the edges; statistical users
    should sample with a margin and classify the core.
    """
    _require_2d(env)
    _check_origin(env, x)
    from .bitgrid import PackedGrid

    window = env.window
    if inner is None:
        inner = window
    else:
        if not inner.is_subwindow_of(window):
            raise ValidationError("inner window must sit inside the sampled window")
        if not inner.contains(x):
            raise ValidationError("origin must lie in the inner window")

    pg = PackedGrid.from_env(env)
    packed, _ = pg.reach(x[0] - window.lo[0], x[1] - window.lo[1], backward=True)
    in_b_full = pg.unpack(packed)
    sl = tuple(slice(a - oa, b - oa + 1)
               for a, b, oa in zip(inner.lo, inner.hi, window.lo))
    in_b = in_b_full[sl]

    (x0, y0), (x1, y1) = inner.lo, inner.hi
    edge = np.zeros_like(in_b)
    edge[0, :] = edge[-1, :] = True
    edge[:, 0] = edge[:, -1] = True
    touched = bool((in_b & edge).any())

    complement_intervals = []
    for ix in range(x1 - x0 + 1):
        col = in_b[ix]
        missing = np.flatnonzero(~col)
        if missing.size == 0:
            complement_intervals.append((x0 + ix, None, None, True))
        else:
            lo = int(missing[0]) + y0
            hi = int(missing[-1]) + y0
            contiguous = missing.size == (hi - lo + 1)
            complement_intervals.append((x0 + ix, lo, hi, contiguous))
    intervals = tuple(complement_intervals)

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
        values = []
        for ix in range(x1 - x0 + 1):
            heights = np.flatnonzero(in_b[ix])
            values.append(int(heights[-1]) + y0 if heights.size else y0 - 1)
        w = BlockingFunction.from_values(UPPER, (x0, x1), values)
        ok, _ = verify_blocking_function(inner_env, w)
        if ok:
            return make(BLOCKED_ABOVE, w)

    if all(iv[1] == y0 for iv in nonempty):
        values = []
        for ix in range(x1 - x0 + 1):
            heights = np.flatnonzero(in_b[ix])
            values.append(int(heights[0]) + y0 if heights.size else y1 + 1)
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
    sentinel marks extinction.  truncated is set when the interval reached
    the window's side columns and the rows below it would be unreliable.
    """

    origin: Site
    model_atoms: frozenset[int]
    rows: tuple[tuple[int, Optional[int], Optional[int]], ...]
    truncated: bool


def _chain_atoms(env: EnvironmentGrid) -> frozenset[int]:
    if env.measure is None:
        raise ValidationError("interval chains need a grid with a known measure")
    support = env.measure.support()
    if support == EW_N_ATOMS or support == NE_W_ATOMS:
        return frozenset(support)
    raise ValidationError(
        "interval chains are defined for the horizontal/up and NE/west models only"
    )


def interval_chain(env: EnvironmentGrid, x: Site) -> IntervalChain:
    """Row-by-row construction of the backward cluster's horizontal slices.

    Built forward from the origin row using the row-extension mechanics of
    the model, independently of the BFS in backward_cluster; tests check
    the two agree slice-for-slice.
    """
    _require_2d(env)
    _check_origin(env, x)
    atoms = _chain_atoms(env)
    (wx0, wy0), (wx1, wy1) = env.window.lo, env.window.hi
    ox, oy = x

    arr = env.arrows
    x_lo = wx0

    def mask_row(y):
        return arr[:, y - wy0]

    if atoms == EW_N_ATOMS:
        def row0_interval():
            row = mask_row(oy)
            L = ox
            while L - 1 >= wx0 and row[L - 1 - x_lo] == EW_MASK:
                L -= 1
            U = ox
            while U + 1 <= wx1 and row[U + 1 - x_lo] == EW_MASK:
                U += 1
            return L, U

        def next_interval(L, U, y):
            row = mask_row(y)
            core = row[L - x_lo:U - x_lo + 1]
            if not (core == N_MASK).any():
                return None
            newL = L
            while newL - 1 >= wx0 and row[newL - 1 - x_lo] == EW_MASK:
                newL -= 1
            newU = U
            while newU + 1 <= wx1 and row[newU + 1 - x_lo] == EW_MASK:
                newU += 1
            return newL, newU

    else:  # NE or west
        def row0_interval():
            # NE sites chain rightward into x, west sites chain leftward into x
            row = mask_row(oy)
            L = ox
            while L - 1 >= wx0 and row[L - 1 - x_lo] == NE_MASK:
                L -= 1
            U = ox
            while U + 1 <= wx1 and row[U + 1 - x_lo] == BIT_W:
                U += 1
            return L, U

        def next_interval(L, U, y):
            # Survival needs an NE site inside the core.  The left end is the
            # start of the NE run through L when L itself is NE, else the
            # leftmost NE site of the core (west sites left of it walk away).
            # West sites immediately right of U chain back in.
            row = mask_row(y)
            is_ne = row == NE_MASK
            core = is_ne[L - x_lo:U - x_lo + 1]
            if not core.any():
                return None
            if is_ne[L - x_lo]:
                newL = L
                while newL - 1 >= wx0 and is_ne[newL - 1 - x_lo]:
                    newL -= 1
            else:
                newL = L + int(np.argmax(core))
            newU = U
            while newU + 1 <= wx1 and row[newU + 1 - x_lo] == BIT_W:
                newU += 1
            return newL, newU

    rows: list[tuple[int, Optional[int], Optional[int]]] = []
    truncated = False
    L, U = row0_interval()
    n = 0
    rows.append((0, L, U))
    while True:
        if L <= wx0 or U >= wx1:
            truncated = True
            break
        y = oy - (n + 1)
        if y < wy0:
            truncated = True
            break
        nxt = next_interval(L, U, y)
        n += 1
        if nxt is None:
            rows.append((n, None, None))
            break
        L, U = nxt
        rows.append((n, L, U))
        if not L <= U:
            raise ConsistencyError(f"interval row {n} is empty but not a sentinel")
    return IntervalChain(origin=x, model_atoms=atoms, rows=tuple(rows),
                         truncated=truncated)


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
