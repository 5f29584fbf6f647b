"""Named model catalog.

A two-valued model "<A1>-<A2>" puts probability p on arrow set A1 and 1-p
on A2, both written as compass tokens ("NE-SW", "SWE-N", "EW-NS", ...).
The catalog covers every two-valued model the analysis code knows about,
the three site-percolation models (second atom empty), and the orthant
model in general dimension.  Aliases: osp = NE-., posp = SWE-.,
sp = NSEW-., orthant = all-positive vs all-negative arrows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .directions import parse_token, token_of
from .errors import ValidationError
from .measure import SupportMeasure

TWO_VALUED_NAMES: tuple[str, ...] = (
    # site percolation family (second atom empty)
    "N-.", "EW-.", "NE-.", "SWE-.", "NSEW-.",
    # one arrow each
    "N-E", "N-S",
    # horizontal pair first
    "EW-N", "EW-E", "EW-NS",
    # NE first
    "NE-N", "NE-NW", "NE-EW", "NE-W", "NE-SW",
    # SWE first
    "SWE-S", "SWE-E", "SWE-N", "SWE-EW", "SWE-NS", "SWE-NE", "SWE-SW",
    "SWE-NSE", "SWE-NWE",
    # full arrow set first
    "NSEW-N", "NSEW-NE", "NSEW-EW", "NSEW-SWE",
)

ALIASES = {
    "osp": "NE-.",
    "posp": "SWE-.",
    "sp": "NSEW-.",
}


def require_p(p: float) -> None:
    """Reject a model parameter outside the open interval (0, 1), nan included."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p={p} must lie strictly in (0, 1)")


@dataclass(frozen=True)
class ModelId:
    """A catalog model at a parameter value p strictly inside (0, 1)."""

    name: str
    p: float
    d: int = 2

    def __post_init__(self):
        require_p(self.p)
        canonical = canonical_name(self.name)
        if canonical != self.name:
            object.__setattr__(self, "name", canonical)
        if self.name == "orthant":
            if not 2 <= self.d <= 5:
                raise ValidationError(f"orthant model needs d in [2, 5], got {self.d}")
        else:
            if self.d != 2:
                raise ValidationError(f"model {self.name!r} is two-dimensional, got d={self.d}")

    def label(self) -> str:
        return f"{self.name}:{self.p:g}" + (f":d{self.d}" if self.d != 2 else "")


def canonical_name(name: str) -> str:
    """Resolve aliases and token spelling to the catalog name."""
    key = name.strip()
    low = key.lower()
    if low in ALIASES:
        return ALIASES[low]
    if low == "orthant":
        return "orthant"
    if "-" not in key:
        raise ValidationError(
            f"unknown model {name!r}; known models: {', '.join(catalog_names())}"
        )
    left, right = key.split("-", 1)
    spelled = f"{token_of(parse_token(left))}-{token_of(parse_token(right))}"
    for cat in TWO_VALUED_NAMES:
        a, b = cat.split("-")
        if spelled == f"{token_of(parse_token(a))}-{token_of(parse_token(b))}":
            return cat
    raise ValidationError(
        f"unknown model {name!r}; known models: {', '.join(catalog_names())}"
    )


def catalog_names() -> tuple[str, ...]:
    return TWO_VALUED_NAMES + ("orthant",) + tuple(sorted(ALIASES))


def atom_masks(model: ModelId) -> tuple[int, int]:
    """The two atom masks (A1, A2) of a catalog model."""
    if model.name == "orthant":
        d = model.d
        plus = (1 << d) - 1
        minus = plus << d
        return plus, minus
    left, right = model.name.split("-")
    return parse_token(left), parse_token(right)


def measure_for(model: ModelId) -> SupportMeasure:
    a1, a2 = atom_masks(model)
    return SupportMeasure(model.d, ((a1, model.p), (a2, 1.0 - model.p)))


def two_valued(token_a: str, token_b: str, p: float) -> SupportMeasure:
    """Ad-hoc d=2 two-valued measure from compass tokens (need not be cataloged)."""
    require_p(p)
    a, b = parse_token(token_a), parse_token(token_b)
    if a == b:
        raise ValidationError("the two atoms must be distinct")
    return SupportMeasure(2, ((a, p), (b, 1.0 - p)))
