"""Counter-based random sampling.

Environment draws must be a pure function of (seed, site coordinates):
that is what makes regeneration bit-identical, nested windows agree
site-for-site, and parallel trials safe without coordination.  Sequential
generators cannot give that, so sites are hashed instead: a splitmix64-style
finalizer chained over the seed and the integer coordinates, evaluated
vectorially with wrapping uint64 arithmetic.

This is the one place where a hash h becomes a draw.  With cumulative sums
c_1..c_{K-1} of the atom probabilities, the draw is atom
#{k : (h >> 11) >= ceil(c_k 2^53)}: exactly the atom the uniform
u = (h >> 11) 2^-53 falls in, since c <= u iff (h >> 11) >= ceil(c 2^53).
No float is made, and the last atom needs no threshold, so float dust at
the top of the sums cannot lose it.  Bernoulli(p) is atom 0 of (p, 1 - p).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Sequence

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_M64 = (1 << 64) - 1


def _finalize(z: np.ndarray) -> np.ndarray:
    # splitmix64 output stage: full avalanche on 64 bits
    z = (z ^ (z >> _S30)) * _MUL1
    z = (z ^ (z >> _S27)) * _MUL2
    return z ^ (z >> _S31)


def _as_u64(value) -> np.ndarray:
    # negative values wrap via two's complement, deterministically
    if isinstance(value, (int, np.integer)):
        return np.uint64(int(value) & _M64)
    arr = np.asarray(value)
    if arr.dtype == np.uint64:
        return arr
    return arr.astype(np.int64).astype(np.uint64)


def hash_parts(seed: int, parts: Iterable) -> np.ndarray:
    """Hash (seed, part_1, part_2, ...) to uint64, broadcasting array parts."""
    with np.errstate(over="ignore"):
        h = _finalize(_as_u64(seed) + _GOLDEN)
        for part in parts:
            h = _finalize((h + _GOLDEN) ^ _finalize(_as_u64(part) * _MUL1 + _GOLDEN))
    return h


def thresholds(probs: Sequence[float]) -> tuple[int, ...]:
    """Integer thresholds ceil(c 2^53) of all cumulative sums but the last."""
    return tuple(math.ceil(c * 2.0**53) for c in np.cumsum(probs, dtype=np.float64)[:-1])


def atoms(seed, parts: Iterable, thresholds: Sequence[int]) -> np.ndarray:
    """Atom index of every draw keyed on (seed, parts), broadcasting array parts."""
    m = hash_parts(seed, parts)
    m >>= _S11
    idx = np.zeros(m.shape, dtype=np.uint8 if len(thresholds) < 256 else np.uint16)
    for t in thresholds:
        idx += m >= t
    return idx


def spawn_seed(master_seed: int, *indices: int) -> int:
    """Derive a subordinate 64-bit seed from a master seed and indices.

    Collisions between distinct index tuples have probability ~2**-64 and
    are treated as impossible for simulation purposes.
    """
    return int(hash_parts(master_seed, indices))


# Scalar mirror of the vectorized path, in plain ints: the lazy row-by-row
# simulators draw single sites millions of times and the numpy call
# overhead dominates there.  Must stay bit-identical to hash_parts.

_GOLDEN_I = int(_GOLDEN)
_MUL1_I = int(_MUL1)
_MUL2_I = int(_MUL2)


def _finalize_int(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MUL1_I) & _M64
    z = ((z ^ (z >> 27)) * _MUL2_I) & _M64
    return z ^ (z >> 31)


def atom_one(thresholds: Sequence[int], seed: int, *parts: int) -> int:
    """Scalar atom index equal to atoms(seed, parts, thresholds) elementwise."""
    h = _finalize_int((seed + _GOLDEN_I) & _M64)
    for part in parts:
        pm = _finalize_int((part * _MUL1_I + _GOLDEN_I) & _M64)
        h = _finalize_int(((h + _GOLDEN_I) & _M64) ^ pm)
    return bisect_right(thresholds, h >> 11)  # thresholds never decrease
