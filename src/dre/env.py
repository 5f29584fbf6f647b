"""Finite environment windows and deterministic sampling.

An EnvironmentGrid is a dense array of arrow-set masks over an inclusive
integer box.  Draws are keyed on (seed, absolute site coordinates) via the
counter-based hash in rng.py, so the same seed produces the same arrows at
the same sites regardless of which window you look through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng
from .directions import MAX_DIM, all_directions
from .errors import ValidationError
from .measure import SupportMeasure
from .models import ModelId, measure_for

MAX_SITES = 1 << 28

Site = tuple[int, ...]


@dataclass(frozen=True)
class Window:
    """Inclusive per-axis coordinate ranges; the origin must lie inside."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        d = len(self.lo)
        if d != len(self.hi):
            raise ValidationError("window lo/hi dimension mismatch")
        if not 2 <= d <= MAX_DIM:
            raise ValidationError(f"window dimension must be in [2, {MAX_DIM}], got {d}")
        total = 1
        for a, b in zip(self.lo, self.hi):
            side = b - a + 1
            if side < 3:
                raise ValidationError(f"window side {a}:{b} has length {side}; need >= 3")
            total *= side
            if not a <= 0 <= b:
                raise ValidationError("window must contain the origin on every axis")
        if total > MAX_SITES:
            raise ValidationError(f"window holds {total} sites; limit is {MAX_SITES}")

    @classmethod
    def centered(cls, radius: int, d: int = 2) -> "Window":
        if radius < 1:
            raise ValidationError(f"window radius must be >= 1, got {radius}")
        return cls(tuple([-radius] * d), tuple([radius] * d))

    @classmethod
    def box(cls, *ranges: tuple[int, int]) -> "Window":
        return cls(tuple(r[0] for r in ranges), tuple(r[1] for r in ranges))

    @property
    def d(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))

    @property
    def site_count(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    def contains(self, site: Site) -> bool:
        return all(a <= c <= b for c, a, b in zip(site, self.lo, self.hi))

    def on_edge(self, site: Site) -> bool:
        return any(c == a or c == b for c, a, b in zip(site, self.lo, self.hi))

    def index(self, site: Site) -> tuple[int, ...]:
        return tuple(c - a for c, a in zip(site, self.lo))

    def is_subwindow_of(self, other: "Window") -> bool:
        return all(oa <= a and b <= ob
                   for a, b, oa, ob in zip(self.lo, self.hi, other.lo, other.hi))


@dataclass(frozen=True)
class EnvironmentGrid:
    """A sampled window of the environment plus regeneration metadata.

    The arrow array is frozen after construction; grids are safe to share
    across threads.
    """

    window: Window
    arrows: np.ndarray
    measure: Optional[SupportMeasure] = None
    model: Optional[ModelId] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if tuple(self.arrows.shape) != self.window.shape:
            raise ValidationError("arrow array shape does not match window")
        if self.arrows.dtype != np.uint16:
            object.__setattr__(self, "arrows", self.arrows.astype(np.uint16))
        self.arrows.setflags(write=False)

    @property
    def d(self) -> int:
        return self.window.d

    def mask_at(self, site: Site) -> int:
        return int(self.arrows[self.window.index(site)])


def sample_masks(measure: SupportMeasure, window: Window, seed: int) -> np.ndarray:
    """Raw mask array for a window; the per-site draw is hash(seed, coords).

    The arrows start at atom 0's mask, and the j-th plane rng.passed yields
    flips the bits that change from atom j - 1 to atom j.
    """
    if measure.d != window.d:
        raise ValidationError(f"measure dimension {measure.d} != window dimension {window.d}")
    axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(window.lo, window.hi)]
    *lead, last = np.meshgrid(*axes, indexing="ij", sparse=True)
    h, scratch = np.empty((2,) + window.shape, dtype=np.uint64)
    rng.finish(rng.advanced(rng.hash_parts(seed, lead)), last, h, scratch)
    masks = measure.masks
    arrows = np.full(window.shape, masks[0], dtype=np.uint16)
    for j, plane in enumerate(rng.passed(h, measure.thresholds)):
        arrows ^= plane * (masks[j] ^ masks[j + 1])
    return arrows


def sample_environment(
    measure_or_model: SupportMeasure | ModelId,
    window: Window,
    seed: int,
) -> EnvironmentGrid:
    """Draw every site of the window independently from the measure."""
    if isinstance(measure_or_model, ModelId):
        model = measure_or_model
        measure = measure_for(model)
    else:
        model = None
        measure = measure_or_model
    arrows = sample_masks(measure, window, seed)
    return EnvironmentGrid(window=window, arrows=arrows, measure=measure,
                           model=model, seed=seed)


def reverse_environment(env: EnvironmentGrid) -> EnvironmentGrid:
    """Edge-reversed view: site z carries arrow -e exactly when e is at z-e.

    Arrows whose source lies outside the window are unknown, so edge sites
    of the reversed grid may be missing incoming information; double
    reversal is the identity on the window interior only.
    """
    d = env.d
    src = env.arrows
    out = np.zeros_like(src)
    for dn in all_directions(d):
        bit = np.uint16(1 << dn.bit(d))
        neg_bit = np.uint16(1 << dn.negate().bit(d))
        has = (src & bit).astype(bool)
        # target slice: shifted one step along dn
        src_sl = [slice(None)] * d
        dst_sl = [slice(None)] * d
        if dn.sign > 0:
            src_sl[dn.axis] = slice(0, -1)
            dst_sl[dn.axis] = slice(1, None)
        else:
            src_sl[dn.axis] = slice(1, None)
            dst_sl[dn.axis] = slice(0, -1)
        out[tuple(dst_sl)] |= np.where(has[tuple(src_sl)], neg_bit, np.uint16(0))
    return EnvironmentGrid(window=env.window, arrows=out, measure=None,
                           model=None, seed=env.seed)


def subgrid(env: EnvironmentGrid, window: Window) -> EnvironmentGrid:
    """Restrict a grid to a nested window (no resampling)."""
    if not window.is_subwindow_of(env.window):
        raise ValidationError("requested window is not contained in the grid's window")
    sl = tuple(
        slice(a - oa, a - oa + (b - a + 1))
        for a, b, oa in zip(window.lo, window.hi, env.window.lo)
    )
    return EnvironmentGrid(window=window, arrows=env.arrows[sl].copy(),
                           measure=env.measure, model=env.model, seed=env.seed)
