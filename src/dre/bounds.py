"""Exact calculators, duality checks, and the static model classifier.

Takeaways wired in here:

* Root solvers for the two cubic drift conditions behind the new critical
  bounds on the triangular-lattice site percolation models.
* The finiteness thresholds from self-avoiding-walk counting,
  eps0 = (1 - sqrt(1 - 4/sigma^2)) / 2, with the connective-constant table.
* Exact SAW enumeration (the oracle behind those thresholds).
* Closed-form drifts of the interval/edge walks used by the Monte Carlo
  verifiers.
* The boundary-sequence duality: a function w on columns fails to block
  exactly when some vertex along its upper contour carries the wrong local
  environment, and the contour transitions are the moves of oriented
  triangular site percolation (3 moves) or its five-neighbor variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .clusters import BlockingFunction, UPPER, _require_2d, verify_blocking_function
from .directions import (BIT_E, BIT_N, BIT_S, BIT_W, EW_MASK, N_MASK, NE_MASK, NS_MASK,
                         SW_MASK, SWE_MASK)
from .env import EnvironmentGrid
from .errors import DimensionError, ValidationError
from .measure import SupportMeasure, theta_plus_is_one
from .models import ModelId, canonical_name, measure_for, require_p

OTSP = "OTSP"
FSOSP = "FSOSP"


# ---------------------------------------------------------------------------
# Cubic roots and SAW-based thresholds
# ---------------------------------------------------------------------------

def _bisect_increasing(f: Callable[[float], float], lo: float, hi: float,
                       tol: float = 1e-9) -> float:
    flo, fhi = f(lo), f(hi)
    if not flo < 0.0 < fhi:
        raise ValidationError("function does not bracket a root on the interval")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


CUBICS = {
    # Crossing condition for the SE path against the up-left-right cluster
    # edge in the orthant model; its root is where the drifts tie.
    "OTSP_bound": lambda p: p**3 + 2.0 * p - 1.0,
    # The same threshold for the three-or-up model, expressed in the open
    # probability of the five-neighbor lattice (q = 1 - p of the model);
    # equivalent to p^3 - p^2 + 2p - 1 crossing zero at p = 1 - q.
    "FSOSP_bound": lambda q: q**3 - 2.0 * q**2 + 3.0 * q - 1.0,
}


def cubic_root(kind: str, tol: float = 1e-9) -> float:
    """Unique root in (0, 1) of the named increasing cubic, by bisection."""
    if kind not in CUBICS:
        raise ValidationError(f"unknown cubic kind {kind!r}; have {sorted(CUBICS)}")
    return _bisect_increasing(CUBICS[kind], 0.0, 1.0, tol)


# Connective constant bounds and estimates for the square lattice,
# d = 2..5: (rigorous lower, rigorous upper, numerical estimate).
SIGMA_TABLE = {
    2: (2.6256, 2.6792, 2.63816),
    3: (4.5721, 4.7114, 4.68404),
    4: (6.7429, 6.8040, 6.77404),
    5: (8.8285, 8.8602, 8.83854),
}

RIGOROUS_UPPER = "RigorousUpper"
ESTIMATE = "Estimate"


def epsilon_d0(d: int, sigma_source: str = RIGOROUS_UPPER) -> dict[str, float]:
    """Finiteness thresholds for communicating clusters.

    sigma_inv_sq = sigma^-2 is the generic threshold; eps0 is the sharper
    two-valued-dichotomy threshold (1 - sqrt(1 - 4/sigma^2)) / 2.  The
    rigorous upper bound on sigma gives the conservative (provable) values.
    """
    if d not in SIGMA_TABLE:
        raise ValidationError(f"sigma table covers d in [2, 5], got {d}")
    lo, hi, est = SIGMA_TABLE[d]
    if sigma_source == RIGOROUS_UPPER:
        sigma = hi
    elif sigma_source == ESTIMATE:
        sigma = est
    else:
        raise ValidationError(f"sigma_source must be {RIGOROUS_UPPER} or {ESTIMATE}")
    sis = sigma**-2
    eps0 = 0.5 * (1.0 - np.sqrt(1.0 - 4.0 / sigma**2))
    return {"sigma": sigma, "sigma_inv_sq": float(sis), "eps0": float(eps0)}


def saw_counts(d: int, n_max: int) -> list[int]:
    """Exact self-avoiding-walk counts c_1..c_n_max by backtracking.

    One symmetry factor: counts are enumerated with a fixed first step and
    multiplied by 4.  n_max is capped at 14 to keep exact enumeration in
    seconds.
    """
    if d != 2:
        raise DimensionError("exact SAW enumeration is implemented for d=2")
    if not 1 <= n_max <= 14:
        raise ValidationError(f"n_max must be in [1, 14], got {n_max}")
    counts = [0] * (n_max + 1)
    visited = {(0, 0), (1, 0)}

    def dfs(x: int, y: int, depth: int) -> None:
        counts[depth] += 1
        if depth == n_max:
            return
        for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nxt not in visited:
                visited.add(nxt)
                dfs(nxt[0], nxt[1], depth + 1)
                visited.remove(nxt)

    dfs(1, 0, 1)
    return [4 * counts[k] for k in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# Closed-form drifts and transition laws
# ---------------------------------------------------------------------------

def drift_formulas(model: str, p: float) -> dict[str, float]:
    """Closed-form walk drifts for the named model at parameter p."""
    require_p(p)
    name = canonical_name(model)
    q = 1.0 - p
    delta_l0 = q / p - p * p / q
    delta_u0 = q / p
    if name == "NE-W":
        return {"delta_L0": delta_l0, "delta_U0": delta_u0}
    if name == "NE-SW":
        return {
            "delta_L0": delta_l0,
            "delta_U0": delta_u0,
            "delta_W": p / q,
            "crossing_margin": p**3 + 2.0 * p - 1.0,
            "mirror_margin": q**3 + 2.0 * q - 1.0,
        }
    if name == "SWE-N":
        margin = p**3 - p * p + 2.0 * p - 1.0
        return {
            "seoa_mean_excursion": -margin / (p * q),
            "drift_margin": margin,
        }
    if name == "EW-N":
        return {}
    raise ValidationError(f"no drift formulas registered for model {name!r}")


def dn_transition_probs(k: int, p: float) -> dict[str, float]:
    """Width-chain transition probabilities for the horizontal/up model."""
    if k < 1:
        raise ValidationError("width k must be >= 1")
    alpha = p**k
    stay = (1.0 - p) ** 2 * (1.0 - p**k)
    beta = (1.0 - p**k) * p * (2.0 - p)
    return {"die": alpha, "stay": stay, "grow": beta}


def lu_step_prob(which: str, j: int, p: float) -> float:
    """One-step law of the lower/upper edge walks of the NE-or-west model."""
    q = 1.0 - p
    if which == "U":
        return p * q**j if j >= 0 else 0.0
    if which == "L":
        if j >= 1:
            return p * q**j
        return p ** (1 - j) * q  # j <= 0: p^(|j|+1) * (1-p)
    raise ValidationError("which must be 'L' or 'U'")


def w_step_prob(j: int, p: float) -> float:
    """One-step law of the SE path's down-step column process (orthant model)."""
    return (1.0 - p) * p**j if j >= 0 else 0.0


def seoa_excursion_prob(w: int, p: float) -> float:
    """Law of the vertical excursion between sideways steps of a SEoA path."""
    if w <= 0:
        return p ** (1 - w) * (1.0 - p)  # w = -k: p^(k+1) (1-p)
    return p * (1.0 - p) ** w


# ---------------------------------------------------------------------------
# Boundary sequences and the blocking duality
# ---------------------------------------------------------------------------

TR_UP = "Up"
TR_DOWN = "Down"
TR_LEFT = "Left"
TR_DIAG_NW = "DiagNW"
TR_DIAG_SW = "DiagSW"

_MOVES = {
    TR_UP: (0, 1),
    TR_DOWN: (0, -1),
    TR_LEFT: (-1, 0),
    TR_DIAG_NW: (-1, 1),
    TR_DIAG_SW: (-1, -1),
}

_LATTICE_MOVES = {
    OTSP: (TR_UP, TR_LEFT, TR_DIAG_NW),
    FSOSP: (TR_UP, TR_DOWN, TR_LEFT, TR_DIAG_NW, TR_DIAG_SW),
}


@dataclass(frozen=True)
class DualBoundarySequence:
    lattice: str
    vertices: tuple[tuple[int, int], ...]
    transitions: tuple[str, ...]

    def __post_init__(self):
        if self.lattice not in (_LATTICE_MOVES):
            raise ValidationError(f"lattice must be OTSP or FSOSP, got {self.lattice!r}")
        if len(self.transitions) != max(len(self.vertices) - 1, 0):
            raise ValidationError("need exactly one transition between vertices")
        allowed = _LATTICE_MOVES[self.lattice]
        for (a, b), tr in zip(zip(self.vertices, self.vertices[1:]), self.transitions):
            if tr not in allowed:
                raise ValidationError(f"move {tr} not allowed on {self.lattice}")
            dx, dy = _MOVES[tr]
            if (a[0] + dx, a[1] + dy) != b:
                raise ValidationError(f"transition {tr} does not map {a} to {b}")


def boundary_sequence(w: BlockingFunction, lattice: str) -> DualBoundarySequence:
    """Enumerate the contour of w's upper complement bordering w from below.

    The walk runs from the rightmost column to the leftmost.  Entering
    column n from the right it sits at w(n+1) when that is higher than the
    column's floor w(n)+1 (descending with Down moves on the five-move
    lattice), then leaves left with Up moves to w(n-1) and a DiagNW, or a
    Left, or a DiagSW, according to the sign of w(n-1) - w(n).  On the
    three-move lattice w must be nonincreasing and no Down/DiagSW occur.
    These are exactly the vertices whose arrows could cross w, so w blocks
    iff every vertex in the sequence is open in the dual sense.
    """
    if lattice not in _LATTICE_MOVES:
        raise ValidationError(f"lattice must be {OTSP!r} or {FSOSP!r}")
    if w.side != UPPER:
        raise ValidationError("boundary sequences are defined for upper functions;"
                              " reflect the window vertically for the lower case")
    x0, x1 = w.columns
    vals = {n: w[n] for n in range(x0, x1 + 1)}
    if lattice == OTSP and not w.monotone_decreasing:
        raise ValidationError("the three-move duality needs a nonincreasing function")

    vertices: list[tuple[int, int]] = []
    transitions: list[str] = []

    def emit(v, tr=None):
        if tr is not None:
            transitions.append(tr)
        vertices.append(v)

    h_in = vals[x1] + 1
    emit((x1, h_in))
    for n in range(x1, x0 - 1, -1):
        floor = vals[n] + 1
        k = vertices[-1][1]
        while k > floor:  # descend along the right wall of a valley
            emit((n, k - 1), TR_DOWN)
            k -= 1
        if n == x0:
            break
        left = vals[n - 1]
        if left > vals[n]:
            while k < left:  # climb the left wall
                emit((n, k + 1), TR_UP)
                k += 1
            emit((n - 1, left + 1), TR_DIAG_NW)
        elif left == vals[n]:
            emit((n - 1, k), TR_LEFT)
        else:
            emit((n - 1, k - 1), TR_DIAG_SW)
    return DualBoundarySequence(lattice, tuple(vertices), tuple(transitions))


_DUAL_OPEN_MASK = {OTSP: NE_MASK, FSOSP: N_MASK}
_DUAL_MODEL_ATOMS = {
    OTSP: frozenset({NE_MASK, SW_MASK}),
    FSOSP: frozenset({SWE_MASK, N_MASK}),
}


def _vertex_constrained(v: tuple[int, int], w: BlockingFunction, lattice: str,
                        window) -> bool:
    """Whether a contour vertex has a potential crossing edge inside the window.

    Only such vertices are forced open by the in-window blocking property;
    vertices whose crossing targets leave the window are unconstrained.
    """
    n, k = v
    x0, x1 = w.columns
    if window.contains((n, k - 1)) and k - 1 <= w[n]:
        return True
    if n - 1 >= x0 and window.contains((n - 1, k)) and k <= w[n - 1]:
        return True
    if lattice == FSOSP and n + 1 <= x1 and window.contains((n + 1, k)) \
            and k <= w[n + 1]:
        return True
    return False


def verify_duality(
    env: EnvironmentGrid, w: BlockingFunction, lattice: str
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Both sides of the blocking duality on one environment.

    The contour side: every boundary-sequence vertex with an in-window
    crossing edge must carry the open local environment (NE on the
    three-move lattice, up-only on the five-move one).  The direct side is
    the edge scan of verify_blocking_function.  The two are equivalent by
    construction, so a disagreement is an internal bug and raises; the
    returned value is the verdict plus the first failing vertex, if any.
    """
    from .errors import ConsistencyError

    _require_2d(env)
    if env.measure is None or env.measure.support() != _DUAL_MODEL_ATOMS[lattice]:
        raise ValidationError(
            f"environment atoms do not match the {lattice} duality model"
        )
    seq = boundary_sequence(w, lattice)
    open_mask = _DUAL_OPEN_MASK[lattice]
    bad = None
    for v in seq.vertices:
        if not env.window.contains(v):
            continue
        if env.mask_at(v) == open_mask:
            continue
        if _vertex_constrained(v, w, lattice, env.window):
            bad = v
            break
    ok_scan, _ = verify_blocking_function(env, w)
    if ok_scan == (bad is not None):
        raise ConsistencyError(
            f"duality sides disagree: edge scan {ok_scan}, contour vertex {bad}"
        )
    return (bad is None), bad


def exhaustive_duality_check(
    lattice: str,
    n_cols: int,
    n_rows: int,
    w_lo: int,
    w_hi: int,
) -> int:
    """Exhaustively verify the blocking duality on a small block.

    Enumerates every height function w on columns 0..n_cols-1 with values
    in [w_lo, w_hi] (nonincreasing only, for the three-move lattice) and
    every assignment of the block's sites to the model's two atoms, and
    checks

        no crossing arrow from above w  <=>  all contour vertices open

    where the left side is an independent vectorized edge scan and the
    right side uses boundary_sequence.  Returns the number of (w, env)
    pairs tested; raises ConsistencyError on any mismatch.
    """
    from .errors import ConsistencyError
    from itertools import product as iproduct

    if lattice not in _LATTICE_MOVES:
        raise ValidationError("lattice must be OTSP or FSOSP")
    nbits = n_cols * n_rows
    if nbits > 20:
        raise ValidationError("block too large for exhaustive sweep")
    if w_lo < 0 or w_hi > n_rows - 2:
        # keeps every crossing target inside the block, so the edge scan and
        # the contour enumeration see identical site sets
        raise ValidationError("need 0 <= w_lo and w_hi <= n_rows - 2")
    envs = np.arange(1 << nbits, dtype=np.uint32)

    def bit(n, k):
        return np.uint32(1 << (n * n_rows + k))

    def in_block(n, k):
        return 0 <= n < n_cols and 0 <= k < n_rows

    heights = range(w_lo, w_hi + 1)
    tested = 0
    for wv in iproduct(heights, repeat=n_cols):
        if lattice == OTSP and any(b > a for a, b in zip(wv, wv[1:])):
            continue
        w = BlockingFunction.from_values(UPPER, (0, n_cols - 1), wv)

        # crossing scan: a closed site above w with an arrow landing at or
        # below w; closed means SW (three-move dual) or SWE (five-move dual),
        # i.e. the zero bit of the env integer.
        cross_mask = np.uint32(0)
        for n in range(n_cols):
            for k in range(n_rows):
                if k <= wv[n]:
                    continue
                down = k - 1 <= wv[n]
                left = n >= 1 and k <= wv[n - 1]
                right = (lattice == FSOSP and n + 1 < n_cols and k <= wv[n + 1])
                if down or left or right:
                    cross_mask |= bit(n, k)
        no_crossing = (envs & cross_mask) == cross_mask  # all those sites open

        seq = boundary_sequence(w, lattice)
        seq_mask = np.uint32(0)
        for (n, k) in set(seq.vertices):
            if in_block(n, k):
                seq_mask |= bit(n, k)
        all_open = (envs & seq_mask) == seq_mask
        # vertices outside the block carry no environment on either side, so
        # the in-block vertex set must coincide with the crossing-site set
        # and the two predicates must agree on every environment
        if seq_mask != cross_mask:
            raise ConsistencyError(
                f"contour vertices disagree with crossing sites for w={wv}"
            )
        if not np.array_equal(no_crossing, all_open):
            raise ConsistencyError(
                f"duality mismatch on {lattice} for w={wv} "
                f"(first env {int(np.nonzero(no_crossing != all_open)[0][0])})"
            )
        tested += int(envs.size)
    return tested


# ---------------------------------------------------------------------------
# Static classification (the model summary table)
# ---------------------------------------------------------------------------

ZERO = "zero"
ONE = "one"
POSITIVE = "positive"
PHASE_TRANSITION = "phase_transition"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class ThetaClass:
    kind: str
    detail: str = ""

    def __str__(self) -> str:
        return self.kind + (f" ({self.detail})" if self.detail else "")


@dataclass(frozen=True)
class StaticClassification:
    model: str
    theta_plus: ThetaClass
    theta_minus: ThetaClass
    theta: ThetaClass
    notes: tuple[str, ...]


_PC_TEXT = {
    NE_MASK: "p_c approx 0.7055, rigorous [0.6882, 0.7491]",
    SWE_MASK: "p_c approx 0.6317, rigorous [0.5972, 0.7491]",
    BIT_N | BIT_S | BIT_E | BIT_W: "p_c approx 0.5927, rigorous [0.5416, 0.6795]",
}

_OTSP_PT = ("theta > 0 iff 1 - p_c^OTSP <= p <= p_c^OTSP; "
            "p_c^OTSP approx 0.5956, >= 0.5466, <= 0.7491")
_OTSP_PT_HI = ("theta > 0 iff p >= 1 - p_c^OTSP; p_c^OTSP approx 0.5956")
_FSOSP_PT = ("theta > 0 iff p >= 1 - p_c^FSOSP; "
             "p_c^FSOSP in [0.4302 (computed; printed 0.4311), 0.7491]")

# Table rows the lemma cascade cannot derive on its own.
_CATALOG_THETA_OVERRIDES: dict[str, dict[str, ThetaClass]] = {
    "N-E": {"theta_minus": ThetaClass(ZERO, "coalescing paths: backward sets die out")},
    "NE-SW": {"theta": ThetaClass(PHASE_TRANSITION, _OTSP_PT)},
    "SWE-N": {"theta": ThetaClass(PHASE_TRANSITION, _FSOSP_PT)},
    "SWE-NE": {"theta": ThetaClass(PHASE_TRANSITION, _OTSP_PT_HI)},
    "NSEW-NE": {"theta": ThetaClass(PHASE_TRANSITION, _OTSP_PT_HI)},
    "NSEW-N": {"theta": ThetaClass(
        PHASE_TRANSITION, "theta > 0 iff p >= 1 - p_c^FSOSP")},
    "EW-NS": {"theta": ThetaClass(
        POSITIVE, "unique gigantic communicating component for every p")},
    "SWE-NS": {"theta": ThetaClass(ONE, "every communicating cluster is the whole lattice")},
    "SWE-NSE": {"theta": ThetaClass(ONE, "every communicating cluster is the whole lattice")},
    "NSEW-.": {"theta": ThetaClass(
        PHASE_TRANSITION, "site percolation: the communicating cluster is the usual one")},
}

_ROT90 = {BIT_E: BIT_N, BIT_N: BIT_W, BIT_W: BIT_S, BIT_S: BIT_E}


def _rotate_mask(mask: int) -> int:
    out = 0
    for b in (BIT_E, BIT_N, BIT_W, BIT_S):
        if mask & b:
            out |= _ROT90[b]
    return out


def _reflect_mask(mask: int) -> int:
    out = mask & NS_MASK
    if mask & BIT_E:
        out |= BIT_W
    if mask & BIT_W:
        out |= BIT_E
    return out


def _submodel_orbit(a: int, b: int) -> set[tuple[int, int]]:
    orbit = set()
    for m1, m2 in ((a, b), (_reflect_mask(a), _reflect_mask(b))):
        for _ in range(4):
            m1, m2 = _rotate_mask(m1), _rotate_mask(m2)
            orbit.add((m1, m2))
    return orbit


# Submodels with provably positive backward-percolation probability.
_POSITIVE_B_SUBMODELS = _submodel_orbit(EW_MASK, N_MASK) | _submodel_orbit(NE_MASK, BIT_W)


def _contains_submodel(measure: SupportMeasure, sub: tuple[int, int]) -> bool:
    c1, c2 = sub
    covered = all((m & c1) == c1 or (m & c2) == c2 for m, _ in measure.atoms)
    return (covered
            and measure.prob_mask_superset(c1) > 0.0
            and measure.prob_mask_superset(c2) > 0.0)


def _one_dimensional_axis(measure: SupportMeasure) -> Optional[int]:
    axes = set()
    for m, _ in measure.atoms:
        for dn_bit in range(2 * measure.d):
            if m & (1 << dn_bit):
                axes.add(dn_bit % measure.d)
    if len(axes) <= 1:
        return next(iter(axes)) if axes else 0
    return None


def static_classify(model: ModelId | SupportMeasure) -> StaticClassification:
    """Model-level connectivity classification.

    Applies, in order: the one-axis degeneracy check, the orthogonal-witness
    criterion for forward clusters, the guaranteed-arrow half-line criterion
    for backward clusters, hyperplane confinement and whole-lattice criteria
    for communicating clusters, then submodel containment, the
    site-percolation mirror identity, and finally the curated table rows
    for phase-transition models.  Unknown is returned where nothing applies.
    """
    if isinstance(model, ModelId):
        name = model.name
        measure = measure_for(model)
    else:
        name = "raw"
        measure = model
    d = measure.d
    notes: list[str] = []
    tp = tm = th = ThetaClass(UNKNOWN)

    from .directions import all_directions

    dirs = all_directions(d)
    has_witness, witness = theta_plus_is_one(measure)
    halfline = next((dn for dn in dirs if measure.prob_contains(dn) == 1.0), None)
    bidirectional = next(
        (dn for dn in dirs if measure.prob_mask_superset(
            (1 << dn.bit(d)) | (1 << dn.negate().bit(d))) == 1.0),
        None,
    )
    perc_atom = None
    if len(measure.atoms) == 2 and 0 in measure.support():
        perc_atom = next(m for m in measure.support() if m != 0)

    axis = _one_dimensional_axis(measure)
    if axis is not None:
        notes.append("one_dimensional")
        tp = ThetaClass(ONE) if has_witness else ThetaClass(ZERO)
        tm = ThetaClass(ONE) if halfline else ThetaClass(ZERO)
        th = ThetaClass(ONE) if bidirectional else ThetaClass(ZERO)
        return StaticClassification(name, tp, tm, th, tuple(notes))

    # forward clusters
    if has_witness:
        tp = ThetaClass(ONE)
        notes.append("orthogonal_witness:" +
                     ",".join(f"{'+' if w.sign > 0 else '-'}e{w.axis + 1}" for w in witness))
    elif perc_atom is not None and d == 2:
        tp = ThetaClass(PHASE_TRANSITION,
                        _PC_TEXT.get(perc_atom, "monotone percolation in p"))
        notes.append("monotone_percolation")

    # backward clusters
    if halfline is not None:
        tm = ThetaClass(ONE)
        notes.append("guaranteed_arrow_halfline")
    elif d == 2 and any(_contains_submodel(measure, sub) for sub in _POSITIVE_B_SUBMODELS):
        tm = ThetaClass(POSITIVE)
        notes.append("contains_positive_backward_submodel")
    elif perc_atom is not None:
        tm = ThetaClass(tp.kind, tp.detail)
        notes.append("site_percolation_mirror")

    # communicating clusters
    if bidirectional is not None:
        th = ThetaClass(ONE)
        notes.append("bidirectional_guaranteed_axis")
        if all(measure.prob_contains(dn) > 0.0 for dn in dirs):
            notes.append("whole_lattice_communication")
    else:
        confined = next(
            (dn for dn in dirs
             if measure.prob_contains(dn) > 0.0
             and measure.prob_contains(dn.negate()) == 0.0),
            None,
        )
        if confined is not None:
            th = ThetaClass(ZERO)
            notes.append("hyperplane_confinement")

    overrides = _CATALOG_THETA_OVERRIDES.get(name, {})
    if "theta_plus" in overrides:
        tp = overrides["theta_plus"]
    if "theta_minus" in overrides:
        tm = overrides["theta_minus"]
    if "theta" in overrides:
        th = overrides["theta"]
    if overrides:
        notes.append("catalog_table")

    if name == "orthant" and d > 2:
        eps = epsilon_d0(d)["eps0"]
        th = ThetaClass(UNKNOWN,
                        f"all communicating clusters finite for p < {eps:.5f} "
                        f"or p > {1 - eps:.5f}")
        notes.append("saw_threshold")

    return StaticClassification(name, tp, tm, th, tuple(notes))


# ---------------------------------------------------------------------------
# The bounds report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    entries: tuple[tuple[str, str, str], ...]  # (key, printed value, source)

    def lines(self) -> list[str]:
        return [f"{key}={text}" for key, text, _ in self.entries]

    def as_dict(self) -> dict[str, str]:
        return {key: text for key, text, _ in self.entries}


def bounds_report() -> BoundsReport:
    """Every named constant the package knows, with provenance."""
    e: list[tuple[str, str, str]] = []

    def add(key: str, text: str, source: str) -> None:
        e.append((key, text, source))

    r_otsp = cubic_root("OTSP_bound")
    r_fsosp = cubic_root("FSOSP_bound")
    add("otsp.crossing_root.computed", f"{r_otsp:.5f}", "root of p^3+2p-1 (bisection 1e-9)")
    add("otsp.lower_bound.computed", f"{1.0 - r_otsp:.5f}", "1 - crossing root")
    add("otsp.lower_bound.paper", "0.5466", "as printed")
    add("otsp.pc.estimate", "0.5956", "literature estimate")
    add("otsp.upper_bound.literature", "0.7491", "via the oriented square lattice")
    add("fsosp.lower_bound.computed", f"{r_fsosp:.5f}",
        "root of q^3-2q^2+3q-1 (bisection 1e-9)")
    add("fsosp.lower_bound.paper", "0.4311",
        "as printed; disagrees with the computed root, see ledger key above")
    add("fsosp.lower_bound.prior", "0.3205", "literature")
    add("fsosp.upper_bound.literature", "0.7491", "via the oriented square lattice")
    add("ne.pc.estimate", "0.7055", "literature estimate")
    add("ne.pc.rigorous_lo", "0.6882", "literature")
    add("ne.pc.rigorous_hi", "0.7491", "literature")
    add("swe.pc.estimate", "0.6317", "literature estimate")
    add("swe.pc.rigorous_lo", "0.5972", "literature")
    add("swe.pc.rigorous_hi", "0.7491", "literature")
    add("nsew.pc.estimate", "0.5927", "literature estimate")
    add("nsew.pc.rigorous_lo", "0.5416", "literature")
    add("nsew.pc.rigorous_hi", "0.6795", "literature")
    for d in sorted(SIGMA_TABLE):
        lo, hi, est = SIGMA_TABLE[d]
        add(f"sigma.d{d}.lower", f"{lo}", "connective constant table")
        add(f"sigma.d{d}.upper", f"{hi}", "connective constant table")
        add(f"sigma.d{d}.estimate", f"{est}", "connective constant table")
        vals = epsilon_d0(d, RIGOROUS_UPPER)
        add(f"sigma_inv_sq.d{d}", f"{vals['sigma_inv_sq']:.5f}", "rigorous upper sigma")
        add(f"eps0.d{d}", f"{vals['eps0']:.5f}", "rigorous upper sigma")
        add(f"one_minus_eps0.d{d}", f"{1.0 - vals['eps0']:.5f}", "rigorous upper sigma")
    return BoundsReport(tuple(e))
