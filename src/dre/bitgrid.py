"""Bit-packed reachability on two-dimensional windows.

Frontier BFS over a 200x200 window is too slow in Python for tens of
thousands of Monte Carlo trials, so reachable sets are propagated as
uint64 bit rows instead.  One kernel, reach_batch, runs the forward
fixpoint of a whole batch of windows at once: a step is 20 or 28
in-place shift/and/or calls over the batch's (B, ny, nwords) words, so
numpy's per-call overhead is paid once per step, not once per trial.
Numpy calls on windows this small cost about the same whatever their
size, so the kernel's time is its number of steps and calls: a step
moves the set one site and then two sites along each direction in turn,
the second jump through a "rung" plane of the sites whose neighbour
along that direction has the same move, and it runs as a plan of ufunc
calls on views built once per batch, so it allocates no temporary.
Only the step that tests for the fixpoint carries bits across a
64-column word edge (28 calls); the light steps between tests leave
those eight calls out.
A one-window reach steps only the band of rows its set can reach before
the next check, and widens the band as the set nears its ends; a batch
keeps the whole window, because a band over several trials is a strided
view whose calls cost more than its skipped rows save.
A reach given a goal mask stops a trial once its set holds the goal,
as the census does once it holds its inner window.
Backward reach is forward reach on the edge-reversed masks, and the
communicating set is a backward reach whose moves land only in the
forward set (mutual_stats).  The packed engine is an exact mirror of
clusters.forward_cluster / backward_cluster on d=2 grids and is
cross-checked against them in the test suite.

Layout: bit ix of row iy is the site (lo_x + ix, lo_y + iy).  Move masks
are stacked (4, ..., ny, nwords) in E, N, W, S order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .directions import BIT_E, BIT_N, BIT_S, BIT_W
from .errors import DimensionError

_ONE = np.uint64(1)
# jump length n -> (the shift within a word, the carry shift into the next),
# as 0-d arrays: a ufunc converts a numpy scalar operand on every call
_SHIFTS = {n: (np.array(n, np.uint64), np.array(64 - n, np.uint64)) for n in (1, 2)}
_MOVE_BITS = np.array([BIT_E, BIT_N, BIT_W, BIT_S], dtype=np.uint8)

# Steps between convergence and edge-contact tests.  A fixpoint is
# idempotent and edge contact is monotone, so testing less often changes
# neither the sets nor the flags, only how many spare steps a trial runs.
# A step moves the set up to three sites along each direction (one site,
# then a two-site jump) at twice the numpy calls of a one-site step, and
# all but the tested step skip the moves across a word edge.  A 401x401
# NE-SW backward fixpoint (seed 0) then takes 216 steps (4752 calls)
# instead of 492 one-site steps at p=0.5, and 80 (1760) instead of 220 at
# p=0.9.  The oriented row sweep (montecarlo) settles its trials on the
# same cadence, at most every CHECK_EVERY rows.
CHECK_EVERY = 4
# Rows a set can move north or south between two checks: three a step
_BAND = 3 * CHECK_EVERY


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """(..., n) bool or int -> (..., ceil(n/64)) uint64; bit i of a word row
    is set where bits[..., i] != 0.

    np.packbits runs ~10x slower along a strided axis, so callers pass
    row-order (C-contiguous) planes.
    """
    packed8 = np.packbits(bits, axis=-1, bitorder="little")
    nbytes = packed8.shape[-1]
    words = np.zeros(packed8.shape[:-1] + (-(-nbytes // 8),), dtype=np.uint64)
    words.view(np.uint8)[..., :nbytes] = packed8
    return words


def unpack_words(words: np.ndarray, nx: int) -> np.ndarray:
    """(..., ny, nwords) uint64 -> (..., nx, ny) bool."""
    bits = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")[..., :nx]
    return bits.astype(bool).swapaxes(-1, -2)


def edge_mask(nx: int, ny: int) -> np.ndarray:
    """(ny, nwords) packed edge ring of an nx-by-ny window."""
    ring = np.zeros((ny, nx), dtype=bool)
    ring[0] = ring[-1] = True
    ring[:, 0] = ring[:, -1] = True
    return pack_rows(ring)


def move_masks(arrows: np.ndarray) -> np.ndarray:
    """(nx, ny) arrow masks -> (4, ny, nwords) packed E, N, W, S move masks,
    without the arrows that leave the window (see _drop_leaving).

    It serves arrow arrays: the census's environments, the cycle checks of
    walks.detect_gigantic_m, render.membership_shades, PackedGrid (only the
    benchmark's adapter, for sweep-bisect's cross-check) and the tests.
    The Monte Carlo trials build their masks from the hash with atom_moves,
    which drops the same arrows.
    """
    if arrows.ndim != 2:
        raise DimensionError("packed reachability requires d=2")
    # one pass transposes to row order, packed along contiguous x, and
    # narrows to the four move bits' byte; packbits reads nonzero as set
    rows = arrows.T.astype(np.uint8, order="C")  # (ny, nx)
    return _drop_leaving(pack_rows(rows & _MOVE_BITS[:, None, None]), arrows.shape[0])


def atom_moves(above: list[np.ndarray], masks: np.ndarray, nx: int,
               out: np.ndarray) -> np.ndarray:
    """Packed E, N, W, S move masks of an nx-column window, written into out
    (4, ny, nwords), from the packed planes of its sites' atoms (see
    atom_plane).  Arrows that leave the window are dropped, as in
    move_masks.
    """
    masks, full = masks.tolist(), pack_rows(np.ones(nx, dtype=bool))
    out.fill(0)
    for k, bit in enumerate(_MOVE_BITS.tolist()):
        atom_plane(above, masks, bit, full, out[k])
    return _drop_leaving(out, nx)


def atom_plane(above: list, masks: list[int], bit: int, full, plane=0):
    """The packed plane of the sites whose atom's mask has bit, over rows
    whose columns are the set bits of full.

    above[j - 1] is the plane of the sites whose atom is j or above, for j
    from 1 to len(above), and no site's atom is past len(above) (see
    rng.passed); masks are the atoms' masks.  The plane is the XOR of the
    planes where bit changes from atom j - 1 to atom j, XOR-ed with full
    when atom 0 has it.  The planes are Python ints, and then plane is 0
    and a new int is returned, or uint64 word arrays, and then plane is a
    zeroed array that the result is XOR-ed into.
    """
    for j, above_j in enumerate(above):
        if (masks[j] ^ masks[j + 1]) & bit:
            plane ^= above_j
    if masks[0] & bit:
        plane ^= full
    return plane


def _drop_leaving(moves: np.ndarray, nx: int) -> np.ndarray:
    """Clear, in place, the packed (4, ..., ny, nwords) moves of an nx-column
    window that leave it: E on the last column, W on the first, N on the
    top row, S on the bottom row.

    They reach nothing, and without them a shift of a flat word run never
    carries a bit into the padding, the next row or the next trial of a
    batch.
    """
    word, bit = divmod(nx - 1, 64)
    moves[0, ..., word] &= ~(_ONE << np.uint64(bit))
    moves[2, ..., 0] &= ~_ONE
    moves[1, ..., -1, :] = 0
    moves[3, ..., 0, :] = 0
    return moves


def _move_calls(dst: np.ndarray, src: np.ndarray, u: np.ndarray, k: int, nw: int,
                n: int) -> tuple[list[tuple], list[tuple]]:
    """The (ufunc, a, b, out) calls of dst |= src moved n (1 or 2) sites along
    move k (E, N, W, S), on flat word runs; u is scratch of src's size.
    Returned as (within, carries): the moves that stay inside a word, then
    the E or W carries across a word edge (none for N and S).

    A row is nw consecutive words.  Callers move only bits whose whole jump
    stays in the window (see _drop_leaving and _planes), so nothing crosses a
    row or trial boundary.
    """
    sh, carry = _SHIFTS[n]
    if k == 0:
        return ([(np.left_shift, src, sh, u), (np.bitwise_or, dst, u, dst)],
                [(np.right_shift, src[:-1], carry, u[1:]),
                 (np.bitwise_or, dst[1:], u[1:], dst[1:])])
    if k == 2:
        return ([(np.right_shift, src, sh, u), (np.bitwise_or, dst, u, dst)],
                [(np.left_shift, src[1:], carry, u[:-1]),
                 (np.bitwise_or, dst[:-1], u[:-1], dst[:-1])])
    m = n * nw
    if k == 1:
        return [(np.bitwise_or, dst[m:], src[:-m], dst[m:])], []
    return [(np.bitwise_or, dst[:-m], src[m:], dst[:-m])], []


def _or_move(dst: np.ndarray, src: np.ndarray, k: int, nw: int) -> None:
    """dst |= src moved one site along move k, by _move_calls.

    It runs the calls itself, not through _step, so that every _step call
    is a growth step of reach_batch.
    """
    within, carries = _move_calls(dst, src, np.empty_like(src), k, nw, 1)
    for f, a, b, out in within + carries:
        f(a, b, out)


def reversed_moves(moves: np.ndarray) -> np.ndarray:
    """Move masks of the edge-reversed grids; forward reach there is backward reach here.

    A site has the opposite of move k when the site one step back along k
    has move k: W' = E moved east, S' = N moved north, and so on.
    """
    src = moves.reshape(4, -1)
    out = np.zeros(moves.shape, dtype=np.uint64)
    for k in range(4):
        _or_move(out.reshape(4, -1)[(k + 2) % 4], src[k], k, moves.shape[-1])
    return out


def _planes(moves: np.ndarray) -> np.ndarray:
    """(4, B, ny, nwords) move masks -> (8, B, ny * nwords): the moves, then their rungs.

    The rung of move k is the set of sites with move k whose neighbour
    along k has it too, so a two-site jump from a rung is a path of two
    moves.  The move masks hold no arrow that leaves the window, so that
    neighbour's move ends inside it and no jump crosses a row, the
    padding or a trial.
    """
    _, b, ny, nw = moves.shape
    planes = np.zeros((8, b, ny * nw), dtype=np.uint64)
    planes[:4] = moves.reshape(4, b, ny * nw)
    flat = planes.reshape(8, -1)
    for k in range(4):
        _or_move(flat[4 + k], flat[k], (k + 2) % 4, nw)  # move k seen one site back
    planes[4:] &= planes[:4]
    return planes


def _plan(r: np.ndarray, planes: np.ndarray, t: np.ndarray, u: np.ndarray,
          nw: int) -> tuple[list[tuple], list[tuple]]:
    """The (ufunc, a, b, out) calls of one in-place growth step of the flat
    batch r, as (light, full): 20 calls without the E and W carries across
    a word edge, and the full step's 28.

    planes is (8, r.size): the four move masks and then their four rungs;
    t and u are scratch of r's size.  For each of E, N, W, S in turn the
    set moves one site along its moves, then two sites from its rungs;
    each call reads what the ones before it added.
    """
    light, full = [], []
    for k in range(4):
        for n, plane in ((1, planes[k]), (2, planes[4 + k])):
            within, carries = _move_calls(r, t, u, k, nw, n)
            calls = [(np.bitwise_and, r, plane, t)] + within
            light += calls
            full += calls + carries
    return light, full


def _step(plan: list[tuple]) -> None:
    """Run one growth step planned by _plan.  It allocates no array."""
    for f, a, b, out in plan:
        f(a, b, out)


def reach_batch(moves: np.ndarray, ix: int | np.ndarray, iy: int | np.ndarray,
                edge: np.ndarray, stop_at_edge: bool = False,
                goal: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Forward fixpoints from site (ix, iy) on a batch of packed windows.

    moves is a (4, B, ny, nwords) stack from move_masks or atom_moves, or from
    reversed_moves for backward reach; edge is the (ny, nwords) edge ring.
    ix and iy are ints, or (B,) arrays of one start per trial; moves of
    batch 1 then serve every trial.
    Returns (sets, touched): the (B, ny, nwords) reachable sets and
    whether each meets the edge ring.  With stop_at_edge a trial stops
    soon after its first edge contact; only its flag is then defined, and
    its set is partial.  goal is an optional (ny, nwords) mask: a trial
    stops at the first check where its set holds every goal site.  A set
    only grows and stays inside the fixpoint, so its goal sites are then
    final; its set off the goal and its flag are left undefined.  Finished
    trials are compacted out of the batch.

    The two-site jumps of a step change how many steps a trial runs, not
    its fixpoint.  Neither do the light steps run between checks (see
    _plan): they move bits only along real arrows, and the checked step
    is a full one, so a set it leaves unchanged is closed under every
    move.  A batch of one steps only the rows [lo, hi) that its set can
    reach before the next check, on views of its arrays, so a census
    window whose set stays in part of it runs short steps.  A batch keeps
    every row: a band over B > 1 trials is a strided (B, rows) view, and
    its calls cost about 2.5x more than calls on flat words, which is more
    than the skipped rows save.  The band changes neither the steps nor
    the checks, so no set or flag changes, partial sets included.  Rows
    outside the band hold no set bit, so the goal is tested only at
    checks where the band spans every goal row, and a reach whose band
    never does pays nothing for it.  The edge flag is computed at every
    check only with stop_at_edge, and otherwise once, as trials finish.
    """
    ix, iy = np.broadcast_arrays(ix, iy)
    if ix.ndim:
        moves = np.broadcast_to(moves, (4, ix.size) + moves.shape[2:])
    _, b, ny, nw = moves.shape
    size = ny * nw
    planes = _planes(moves)
    edge = edge.reshape(size)
    if goal is not None:
        off_goal = ~goal.reshape(size)
    sets = np.empty((b, size), dtype=np.uint64)
    touched = np.empty(b, dtype=bool)
    live = np.arange(b)
    r = np.zeros((b, size), dtype=np.uint64)
    r[np.arange(b), iy * nw + ix // 64] = _ONE << (ix % 64).astype(np.uint64)
    # The rows [lo, hi) that the steps sweep: every row for a batch.  One
    # window starts within 2 * _BAND rows of its start, and a side that is
    # not the window's edge widens by 2 * _BAND at a check that finds a set
    # bit in its _BAND outermost rows, so no step reaches past the band.
    lo, hi = (0, ny) if b != 1 else (max(iy.item() - 2 * _BAND, 0),
                                     min(iy.item() + 2 * _BAND + 1, ny))
    while live.size:
        t, prev, u = (np.empty_like(r) for _ in range(3))
        band = None
        while True:
            if band != (lo, hi):
                # views of this batch's arrays over the band, so rebuilt
                # after every compaction and every widening
                band = (lo, hi)
                cut = slice(lo * nw, hi * nw)
                rb, tb, pb, eb = r[:, cut], t[:, cut], prev[:, cut], edge[cut]
                light, full = _plan(rb.reshape(-1), planes[:, :, cut].reshape(8, -1),
                                    tb.reshape(-1), u[:, cut].reshape(-1), nw)
                spans = goal is not None and not (goal[:lo].any() or goal[hi:].any())
                if spans:
                    ob = off_goal[cut]
            for _ in range(CHECK_EVERY - 1):
                _step(light)
            np.copyto(pb, rb)
            _step(full)
            done = ~np.bitwise_xor(rb, pb, out=tb).any(axis=1)
            if stop_at_edge:
                hit = np.bitwise_and(rb, eb, out=tb).any(axis=1)
                done |= hit
            if spans:
                # covered: no goal bit is missing from the set
                done |= ~np.invert(np.bitwise_or(rb, ob, out=tb), out=tb).any(axis=1)
            if done.any():
                break
            if lo > 0 and rb[:, :_BAND * nw].any():
                lo = max(lo - 2 * _BAND, 0)
            if hi < ny and rb[:, -_BAND * nw:].any():
                hi = min(hi + 2 * _BAND, ny)
        if not stop_at_edge:
            hit = np.bitwise_and(rb, eb, out=tb).any(axis=1)
        sets[live[done]] = r[done]
        touched[live[done]] = hit[done]
        keep = ~done
        live, r, planes = live[keep], r[keep], planes[:, keep]
    return sets.reshape(b, ny, nw), touched


def mutual_stats(moves: np.ndarray, ix: int, iy: int,
                 edge: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sizes, edge contact) of a batch's communicating sets M = C ∩ B.

    A forward fixpoint gives C.  A path from a site of M back to the origin
    stays in C, since each of its sites is reached from the origin through
    that site, so a backward reach whose moves land only in C ends on
    exactly M: masking the moves by C before reversing them keeps a
    reversed move only where it lands in C.
    """
    c, _ = reach_batch(moves, ix, iy, edge)
    m, touched = reach_batch(reversed_moves(moves & c), ix, iy, edge)
    return np.bitwise_count(m).sum(axis=(1, 2)), touched


@dataclass
class PackedGrid:
    """Move masks of one environment, packed for fast reachability.

    Only the benchmark's adapter: perfbench's sweep-bisect cross-check and
    its tracer name it.  The package calls reach_batch directly.
    """

    nx: int
    ny: int
    moves: np.ndarray
    edge: np.ndarray

    @classmethod
    def from_arrows(cls, arrows: np.ndarray) -> "PackedGrid":
        moves = move_masks(arrows)
        nx, ny = arrows.shape
        return cls(nx, ny, moves, edge_mask(nx, ny))

    def reach(self, ix: int, iy: int, backward: bool = False,
              stop_at_edge: bool = False) -> tuple[np.ndarray, bool]:
        """Fixpoint reachable set from one site: a batch of one for reach_batch.

        Returns (packed set, touched_edge).  With stop_at_edge the iteration
        stops soon after the set meets the window's edge ring, which is all
        boundary-reach statistics need; only the flag is then defined, and
        the returned set is partial.
        """
        moves = reversed_moves(self.moves) if backward else self.moves
        sets, touched = reach_batch(moves[:, None], ix, iy, self.edge, stop_at_edge)
        return sets[0], bool(touched[0])
