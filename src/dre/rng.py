"""Counter-based random sampling.

Environment draws must be a pure function of (seed, site coordinates):
that is what makes regeneration bit-identical, nested windows agree
site-for-site, and parallel trials safe without coordination.  Sequential
generators cannot give that, so sites are hashed instead: a splitmix64-style
finalizer chained over the seed and the integer coordinates, evaluated
vectorially with wrapping uint64 arithmetic.

passed is the one place where a hash h becomes a draw.  With cumulative
sums c_1..c_{K-1} of the atom probabilities, the draw is atom
#{k : (h >> 11) >= ceil(c_k 2^53)}: exactly the atom the uniform
u = (h >> 11) 2^-53 falls in, since c <= u iff (h >> 11) >= ceil(c 2^53).
No float is made, and the last atom needs no threshold, so float dust at
the top of the sums cannot lose it.  Bernoulli(p) is atom 0 of (p, 1 - p).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_M64 = (1 << 64) - 1

# The same constants as plain ints.  A step on single integers runs in
# Python ints, where numpy's per-call overhead would dominate: spawn_seed
# and every scalar seed start a chain there, and each of the sweep's rows
# is one link.  Must stay bit-identical to the array steps.
_GOLDEN_I = int(_GOLDEN)
_MUL1_I = int(_MUL1)
_MUL2_I = int(_MUL2)


def _finalize_int(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MUL1_I) & _M64
    z = ((z ^ (z >> 27)) * _MUL2_I) & _M64
    return z ^ (z >> 31)


def _is_scalar(value) -> bool:
    return isinstance(value, int) or np.ndim(value) == 0


def _finalize(z: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """splitmix64 output stage, in place on a uint64 array: full avalanche
    on 64 bits, through one scratch buffer of z's shape for the shifts (a
    new one unless given).
    """
    if scratch is None:
        scratch = np.empty_like(z)
    for shift, mul in ((_S30, _MUL1), (_S27, _MUL2)):
        z ^= np.right_shift(z, shift, out=scratch)
        z *= mul
    z ^= np.right_shift(z, _S31, out=scratch)
    return z


def _as_u64(value) -> np.ndarray:
    # negative values wrap via two's complement, deterministically
    arr = np.asarray(value)
    if arr.dtype == np.uint64:
        return arr
    return arr.astype(np.int64).astype(np.uint64)


def _link(part):
    """The chain's link of a part, wrapped to 64 bits: a Python int for a
    scalar part, else a new uint64 array of the part's shape."""
    if _is_scalar(part):
        return _finalize_int((int(part) * _MUL1_I + _GOLDEN_I) & _M64)
    return _finalize(_as_u64(part) * _MUL1 + _GOLDEN)


def hash_parts(seed, parts: Iterable) -> np.ndarray:
    """Hash (seed, part_1, part_2, ...) to uint64, broadcasting array parts."""
    if _is_scalar(seed):
        return hash_from(_finalize_int((int(seed) + _GOLDEN_I) & _M64), parts)
    return hash_from(_finalize(_as_u64(seed) + _GOLDEN), parts)


def hash_from(state, parts: Iterable) -> np.ndarray:
    """Continue a hash chain: hash_from(hash_parts(s, a), b) == hash_parts(s, a + b).

    state is never written: each step finalizes a fresh array in place.
    Steps on scalars run in Python ints, and a scalar result is a numpy
    uint64.
    """
    h = int(state) if _is_scalar(state) else state
    for part in parts:
        link = _link(part)
        if isinstance(h, int) and isinstance(link, int):
            h = _finalize_int(((h + _GOLDEN_I) & _M64) ^ link)
            continue
        shape = np.broadcast_shapes(np.shape(h), np.shape(link))
        z = np.add(h, _GOLDEN, out=np.empty(shape, dtype=np.uint64))
        z ^= link
        h = _finalize(z)
    return np.uint64(h) if isinstance(h, int) else h


def advanced(state: np.ndarray) -> np.ndarray:
    """A new array of a chain state with the next step's increment added."""
    return np.add(state, _GOLDEN)


def finish(prefix: np.ndarray, part, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """hash_from(state, (part,)) for prefix = advanced(state), written into
    out through scratch, both of the result's shape: one xor of the part's
    link, broadcast against prefix, and the finalizer in place.  A caller
    hashing many keys of one shape allocates nothing of that size again.
    A (K, 1, 1) part of row coordinates completes a (B, n) prefix into a
    (K, B, n) block of K rows.  A list of K ints does the same with links
    made in Python ints, which for the row sweep's few rows a block cost
    less than numpy's steps on an array.
    """
    if isinstance(part, list):
        link = np.array([_link(y) for y in part], dtype=np.uint64)
        link = link.reshape((-1,) + (1,) * prefix.ndim)
    else:
        link = _link(part)
    np.bitwise_xor(prefix, link, out=out)
    return _finalize(out, scratch)


def thresholds(probs: Sequence[float]) -> tuple[int, ...]:
    """Integer thresholds ceil(c 2^53) of all cumulative sums but the last."""
    return tuple(math.ceil(c * 2.0**53) for c in np.cumsum(probs, dtype=np.float64)[:-1])


def passed(h, thresholds: Sequence[int],
           out: Optional[np.ndarray] = None) -> Iterator[np.ndarray]:
    """Yield, for each threshold in turn, where the draw of h is at or past
    it: this is where a hash becomes a draw, and the atom index is the count
    of thresholds passed.

    out, when given, is a bool array of h's shape, rewritten and yielded at
    every step; else each step yields a new array.  A threshold of 2^53 or
    more is passed by no hash and yields nothing.  Thresholds never
    decrease, so the j-th plane yielded holds the draws of atom j or above
    (j from 1), and atoms past the last plane are never drawn.
    """
    # (h >> 11) >= t exactly when h >= t << 11; no hash reaches 2^53 << 11
    for t in thresholds:
        if t < 2**53:
            yield np.greater_equal(h, np.uint64(t << 11), out=out)


def spawn_seed(master_seed: int, *indices: int) -> int:
    """Derive a subordinate 64-bit seed from a master seed and indices.

    Collisions between distinct index tuples have probability ~2**-64 and
    are treated as impossible for simulation purposes.
    """
    return int(hash_parts(master_seed, indices))

