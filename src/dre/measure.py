"""Probability measures on arrow sets.

A SupportMeasure is a finite distribution over arrow-set bitmasks; the
i.i.d. product of one measure over all lattice sites is the random
environment.  Probabilities must sum to 1 within 1e-12; nothing is ever
silently renormalized, a bad sum is an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import rng
from .directions import MAX_DIM, Direction
from .errors import ValidationError

PROB_TOL = 1e-12


@dataclass(frozen=True)
class SupportMeasure:
    """Finite distribution over arrow-set masks in dimension d."""

    d: int
    atoms: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not 2 <= self.d <= MAX_DIM:
            raise ValidationError(f"dimension must be in [2, {MAX_DIM}], got {self.d}")
        if not self.atoms:
            raise ValidationError("measure needs at least one atom")
        full = (1 << (2 * self.d)) - 1
        seen = set()
        total = 0.0
        for mask, prob in self.atoms:
            if not 0 <= mask <= full:
                raise ValidationError(f"arrow mask {mask} out of range for d={self.d}")
            if mask in seen:
                raise ValidationError(f"duplicate atom mask {mask}")
            seen.add(mask)
            if not 0.0 < prob <= 1.0:
                raise ValidationError(f"atom probability {prob} outside (0, 1]")
            total += prob
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(
                f"atom probabilities sum to {total!r}, not 1 (tolerance {PROB_TOL});"
                " refusing to renormalize"
            )

    @property
    def masks(self) -> np.ndarray:
        return np.array([m for m, _ in self.atoms], dtype=np.uint16)

    @property
    def probs(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms], dtype=np.float64)

    @property
    def thresholds(self) -> tuple[int, ...]:
        """Integer draw thresholds of the atoms, in atom order (see rng)."""
        return rng.thresholds(self.probs)

    def support(self) -> frozenset[int]:
        return frozenset(m for m, _ in self.atoms)

    def prob_contains(self, direction: Direction) -> float:
        """mu({A : direction in A})."""
        bit = 1 << direction.bit(self.d)
        return float(sum(p for m, p in self.atoms if m & bit))

    def prob_mask_superset(self, mask: int) -> float:
        """mu({A : A >= mask})."""
        return float(sum(p for m, p in self.atoms if (m & mask) == mask))


def theta_plus_is_one(measure: SupportMeasure) -> tuple[bool, tuple[Direction, ...] | None]:
    """Decide whether every forward cluster is infinite almost surely.

    The criterion: there is a set V of mutually orthogonal unit vectors
    (at most one sign per axis) such that every support atom intersects V.
    All 3**d - 1 candidates are enumerated, per axis in the order
    +e_i, -e_i, omitted; the first witness found is returned.
    """
    d = measure.d
    masks = [m for m, _ in measure.atoms]
    choices = []
    for axis in range(d):
        plus = 1 << Direction(axis, +1).bit(d)
        minus = 1 << Direction(axis, -1).bit(d)
        choices.append(((plus, Direction(axis, +1)), (minus, Direction(axis, -1)), (0, None)))
    for combo in product(*choices):
        vmask = 0
        dirs = []
        for bit, dn in combo:
            vmask |= bit
            if dn is not None:
                dirs.append(dn)
        if vmask == 0:
            continue
        if all(m & vmask for m in masks):
            return True, tuple(dirs)
    return False, None
