"""Counter-based random sampling.

Environment draws must be a pure function of (seed, site coordinates):
that is what makes regeneration bit-identical, nested windows agree
site-for-site, and parallel trials safe without coordination.  Sequential
generators cannot give that, so sites are hashed instead: a splitmix64-style
finalizer chained over the seed and the integer coordinates, evaluated
vectorially with wrapping uint64 arithmetic.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_INV_2_53 = float(2.0**-53)


def _finalize(z: np.ndarray) -> np.ndarray:
    # splitmix64 output stage: full avalanche on 64 bits
    z = (z ^ (z >> _S30)) * _MUL1
    z = (z ^ (z >> _S27)) * _MUL2
    return z ^ (z >> _S31)


_M64_INT = (1 << 64) - 1


def _as_u64(value) -> np.ndarray:
    # negative values wrap via two's complement, deterministically
    if isinstance(value, (int, np.integer)):
        return np.uint64(int(value) & _M64_INT)
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


def uniforms(seed: int, parts: Iterable) -> np.ndarray:
    """Uniform [0, 1) floats keyed on (seed, parts); 53-bit mantissas."""
    h = hash_parts(seed, parts)
    return (h >> _S11).astype(np.float64) * _INV_2_53


def spawn_seed(master_seed: int, *indices: int) -> int:
    """Derive a subordinate 64-bit seed from a master seed and indices.

    Collisions between distinct index tuples have probability ~2**-64 and
    are treated as impossible for simulation purposes.
    """
    return int(hash_parts(master_seed, indices))


# Scalar mirror of the vectorized path, in plain ints: the lazy row-by-row
# simulators draw single sites millions of times and the numpy call
# overhead dominates there.  Must stay bit-identical to hash_parts.

_M64 = _M64_INT
_GOLDEN_I = int(_GOLDEN)
_MUL1_I = int(_MUL1)
_MUL2_I = int(_MUL2)


def _finalize_int(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MUL1_I) & _M64
    z = ((z ^ (z >> 27)) * _MUL2_I) & _M64
    return z ^ (z >> 31)


def uniform_one(seed: int, *parts: int) -> float:
    """Scalar uniform [0, 1) equal to uniforms(seed, parts) elementwise."""
    h = _finalize_int((seed + _GOLDEN_I) & _M64)
    for part in parts:
        pm = _finalize_int((part * _MUL1_I + _GOLDEN_I) & _M64)
        h = _finalize_int(((h + _GOLDEN_I) & _M64) ^ pm)
    return (h >> 11) * _INV_2_53
