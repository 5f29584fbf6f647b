"""Bit-packed reachability on two-dimensional windows.

Frontier BFS over a 200x200 window is too slow in Python for tens of
thousands of Monte Carlo trials, so reachable sets are propagated as
uint64 bit rows instead.  One kernel, reach_batch, runs the forward
fixpoint of a whole batch of windows at once: a step is a handful of
in-place shift/and/or passes over the batch's (B, ny, nwords) words, so
numpy's per-call overhead is paid once per step, not once per trial.
Backward reach is forward reach on the edge-reversed masks.  The packed
engine is an exact mirror of clusters.forward_cluster / backward_cluster
on d=2 grids and is cross-checked against them in the test suite.

Layout: bit ix of row iy is the site (lo_x + ix, lo_y + iy).  Move masks
are stacked (4, ..., ny, nwords) in E, N, W, S order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .directions import BIT_E, BIT_N, BIT_S, BIT_W
from .env import EnvironmentGrid
from .errors import DimensionError

_ONE = np.uint64(1)
_SH1 = np.uint64(1)
_SH63 = np.uint64(63)
_MOVE_BITS = np.array([BIT_E, BIT_N, BIT_W, BIT_S], dtype=np.uint16)

# Steps between convergence and edge-contact tests.  A fixpoint is
# idempotent and edge contact is monotone, so testing less often changes
# neither the sets nor the flags, only how many spare steps a trial runs.
_CHECK_EVERY = 4


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """(..., n) bool -> (..., ceil(n/64)) uint64, bit i of a word row = bits[..., i]."""
    packed8 = np.packbits(bits, axis=-1, bitorder="little")
    nbytes = packed8.shape[-1]
    words = np.zeros(packed8.shape[:-1] + (-(-nbytes // 8),), dtype=np.uint64)
    words.view(np.uint8)[..., :nbytes] = packed8
    return words


def pack_bool(grid: np.ndarray) -> np.ndarray:
    """(nx, ny) bool -> (ny, nwords) uint64, bit index = x index."""
    return pack_rows(grid.T)


def unpack_words(words: np.ndarray, nx: int) -> np.ndarray:
    """(ny, nwords) uint64 -> (nx, ny) bool."""
    bytes8 = words.view(np.uint8)
    bits = np.unpackbits(bytes8, axis=1, bitorder="little")[:, :nx]
    return bits.astype(bool).T


def edge_mask(nx: int, ny: int) -> np.ndarray:
    grid = np.zeros((nx, ny), dtype=bool)
    grid[0, :] = grid[-1, :] = True
    grid[:, 0] = grid[:, -1] = True
    return pack_bool(grid)


def popcount(r: np.ndarray) -> int:
    return int(np.bitwise_count(r).sum())


def move_masks(arrows: np.ndarray) -> np.ndarray:
    """(nx, ny) arrow masks -> (4, ny, nwords) packed E, N, W, S move masks.

    Arrows that leave the window (E on the last column, W on the first, N
    on the top row, S on the bottom row) are dropped.  They reach nothing,
    and without them a shift of a flat word run never carries a bit into
    the padding, the next row or the next trial of a batch.
    """
    if arrows.ndim != 2:
        raise DimensionError("packed reachability requires d=2")
    bits = (arrows.T[None] & _MOVE_BITS[:, None, None]) != 0  # (4, ny, nx)
    bits[0, :, -1] = bits[2, :, 0] = False
    bits[1, -1] = bits[3, 0] = False
    return pack_rows(bits)


def _or_move(dst: np.ndarray, src: np.ndarray, k: int, nw: int) -> None:
    """dst |= src moved one site along move k (E, N, W, S), on flat word runs.

    A row is nw consecutive words; see move_masks for why nothing crosses
    a row or trial boundary.
    """
    if k == 0:
        dst |= src << _SH1
        dst[1:] |= src[:-1] >> _SH63
    elif k == 1:
        dst[nw:] |= src[:-nw]
    elif k == 2:
        dst |= src >> _SH1
        dst[:-1] |= src[1:] << _SH63
    else:
        dst[:-nw] |= src[nw:]


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


def _step(r: np.ndarray, moves: np.ndarray, t: np.ndarray, nw: int) -> None:
    """One in-place growth step of the flat batch r; t is scratch of r's size."""
    for k in range(4):
        np.bitwise_and(r, moves[k], out=t)
        _or_move(r, t, k, nw)


def reach_batch(moves: np.ndarray, ix: int, iy: int, edge: np.ndarray,
                stop_at_edge: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Forward fixpoints from site (ix, iy) on a batch of packed windows.

    moves is a (4, B, ny, nwords) stack from move_masks, or from
    reversed_moves for backward reach; edge is the (ny, nwords) edge ring.
    Returns (sets, touched): the (B, ny, nwords) reachable sets and
    whether each meets the edge ring.  With stop_at_edge a trial stops
    soon after its first edge contact; only its flag is then defined, and
    its set is partial.  Finished trials are compacted out of the batch.
    """
    _, b, ny, nw = moves.shape
    size = ny * nw
    moves = moves.reshape(4, b, size)
    edge = edge.reshape(size)
    sets = np.empty((b, size), dtype=np.uint64)
    touched = np.empty(b, dtype=bool)
    live = np.arange(b)
    r = np.zeros((b, size), dtype=np.uint64)
    r[:, iy * nw + ix // 64] = _ONE << np.uint64(ix % 64)
    while True:
        flat_moves = moves.reshape(4, -1)
        t = np.empty_like(r)
        prev = np.empty_like(r)
        while True:
            for _ in range(_CHECK_EVERY - 1):
                _step(r.reshape(-1), flat_moves, t.reshape(-1), nw)
            np.copyto(prev, r)
            _step(r.reshape(-1), flat_moves, t.reshape(-1), nw)
            hit = np.bitwise_and(r, edge, out=t).any(axis=1)
            done = ~np.bitwise_xor(r, prev, out=t).any(axis=1)
            if stop_at_edge:
                done |= hit
            if done.any():
                break
        sets[live[done]] = r[done]
        touched[live[done]] = hit[done]
        keep = ~done
        if not keep.any():
            return sets.reshape(b, ny, nw), touched
        live, r, moves = live[keep], r[keep], moves[:, keep]


def mutual_stats(moves: np.ndarray, ix: int, iy: int,
                 edge: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sizes, edge contact) of a batch's communicating sets.

    The forward and backward fixpoints run as one batch of 2B.
    """
    b = moves.shape[1]
    sets, _ = reach_batch(np.concatenate([moves, reversed_moves(moves)], axis=1),
                          ix, iy, edge)
    m = sets[:b] & sets[b:]
    return np.bitwise_count(m).sum(axis=(1, 2)), (m & edge).any(axis=(1, 2))


@dataclass
class PackedGrid:
    """Move masks of one environment, packed for fast reachability."""

    nx: int
    ny: int
    moves: np.ndarray
    edge: np.ndarray

    @classmethod
    def from_arrows(cls, arrows: np.ndarray) -> "PackedGrid":
        moves = move_masks(arrows)
        nx, ny = arrows.shape
        return cls(nx, ny, moves, edge_mask(nx, ny))

    @classmethod
    def from_env(cls, env: EnvironmentGrid) -> "PackedGrid":
        return cls.from_arrows(env.arrows)

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

    def unpack(self, r: np.ndarray) -> np.ndarray:
        return unpack_words(r, self.nx)

