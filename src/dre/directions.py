"""Lattice directions, arrow-set bitmasks, and compass notation.

An arrow set at a site is a subset of the 2d signed unit vectors, encoded
as a bitmask: bit i is +e_(i+1) for i < d, bit d+i is -e_(i+1).  In two
dimensions that is bit 0 = E (+e1), bit 1 = N (+e2), bit 2 = W (-e1),
bit 3 = S (-e2), which matches the hex digits of the snapshot file format.

Two-dimensional arrow sets are also written as compass tokens: a string of
letters from NESW in any order ("NE", "SWE", ...), with "." for the empty
set.  Tokens are how models are named on the command line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

MAX_DIM = 5


@dataclass(frozen=True, order=True)
class Direction:
    """A signed unit vector: axis in [0, d), sign +1 or -1."""

    axis: int
    sign: int

    def __post_init__(self):
        if self.axis < 0:
            raise ValidationError(f"direction axis must be >= 0, got {self.axis}")
        if self.sign not in (-1, 1):
            raise ValidationError(f"direction sign must be +1 or -1, got {self.sign}")

    def negate(self) -> "Direction":
        return Direction(self.axis, -self.sign)

    def bit(self, d: int) -> int:
        if self.axis >= d:
            raise ValidationError(f"direction axis {self.axis} out of range for d={d}")
        return self.axis if self.sign > 0 else d + self.axis

    def step(self, d: int) -> tuple[int, ...]:
        vec = [0] * d
        vec[self.axis] = self.sign
        return tuple(vec)


def all_directions(d: int) -> tuple[Direction, ...]:
    """The 2d directions in neighbor order: +e1..+ed, then -e1..-ed."""
    if not 2 <= d <= MAX_DIM:
        raise ValidationError(f"dimension must be in [2, {MAX_DIM}], got {d}")
    plus = tuple(Direction(a, +1) for a in range(d))
    minus = tuple(Direction(a, -1) for a in range(d))
    return plus + minus


# Two-dimensional compass letters.
E = Direction(0, +1)
N = Direction(1, +1)
W = Direction(0, -1)
S = Direction(1, -1)

_LETTER_TO_DIR = {"N": N, "E": E, "S": S, "W": W}

# Bits in d=2 (fixed by the snapshot format).
BIT_E, BIT_N, BIT_W, BIT_S = 1, 2, 4, 8

# The arrow sets the two-valued models and their dual lattices are built from.
NE_MASK = BIT_N | BIT_E
SW_MASK = BIT_S | BIT_W
SWE_MASK = BIT_S | BIT_W | BIT_E
N_MASK = BIT_N
EW_MASK = BIT_E | BIT_W
NS_MASK = BIT_N | BIT_S

# Quadrants list the vertical arrow first; a quadrant path prefers the
# first listed arrow with its tiebreak probability.
QUADRANTS = {
    "NE": (N, E),
    "NW": (N, W),
    "SE": (S, E),
    "SW": (S, W),
}


def parse_token(token: str) -> int:
    """Compass token -> d=2 bitmask.  "." or "0" is the empty set."""
    token = token.strip()
    if token in (".", "0", ""):
        return 0
    mask = 0
    for ch in token.upper():
        if ch not in _LETTER_TO_DIR:
            raise ValidationError(f"bad compass letter {ch!r} in token {token!r}")
        bit = 1 << _LETTER_TO_DIR[ch].bit(2)
        if mask & bit:
            raise ValidationError(f"repeated letter {ch!r} in token {token!r}")
        mask |= bit
    return mask


def token_of(mask: int, d: int = 2) -> str:
    """Bitmask -> compass token (d=2 only); canonical letter order NSEW."""
    if d != 2:
        raise ValidationError("compass tokens are only defined for d=2")
    if mask == 0:
        return "."
    return "".join(ch for ch in "NSEW" if mask & (1 << _LETTER_TO_DIR[ch].bit(2)))
