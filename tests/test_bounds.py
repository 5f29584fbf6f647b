import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dre.bounds import (
    CUBICS,
    ESTIMATE,
    FSOSP,
    OTSP,
    RIGOROUS_UPPER,
    boundary_sequence,
    bounds_report,
    cubic_root,
    dn_transition_probs,
    drift_formulas,
    epsilon_d0,
    exhaustive_duality_check,
    lu_step_prob,
    saw_counts,
    seoa_excursion_prob,
    static_classify,
    verify_duality,
    w_step_prob,
)
from dre.clusters import BlockingFunction, verify_blocking_function
from dre.directions import parse_token
from dre.env import EnvironmentGrid, Window, sample_environment
from dre.errors import ValidationError
from dre.measure import SupportMeasure
from dre.models import ModelId, measure_for

from oracles import (CONTOUR_MOVES, naive_saw_count, oracle_boundary_sequence,
                     oracle_contour_vertex, vertex_constrained)

UP, DOWN, LEFT, DIAG_NW, DIAG_SW = (0, 1), (0, -1), (-1, 0), (-1, 1), (-1, -1)
LATTICE_STEPS = {OTSP: {UP, LEFT, DIAG_NW}, FSOSP: {UP, DOWN, LEFT, DIAG_NW, DIAG_SW}}


def steps(vertices) -> list[tuple[int, int]]:
    return [(b[0] - a[0], b[1] - a[1]) for a, b in zip(vertices, vertices[1:])]


def test_cubic_roots():
    r_otsp = cubic_root("OTSP_bound")
    r_fsosp = cubic_root("FSOSP_bound")
    assert round(r_otsp, 4) == 0.4534
    # the five-neighbor bound computes to 0.4302; the printed constant in
    # the source material (0.4311) does not satisfy its own cubic
    assert round(r_fsosp, 4) == 0.4302
    for kind, root in (("OTSP_bound", r_otsp), ("FSOSP_bound", r_fsosp)):
        assert abs(CUBICS[kind](root)) <= 1e-8
        grid = np.linspace(0.01, 0.99, 197)
        vals = np.array([CUBICS[kind](x) for x in grid])
        assert (np.diff(vals) > 0).all()  # strictly increasing: unique root
    with pytest.raises(ValidationError):
        cubic_root("nope")


def test_epsilon_thresholds():
    vals = epsilon_d0(2, RIGOROUS_UPPER)
    assert round(vals["sigma_inv_sq"], 5) == 0.13931
    assert round(vals["eps0"], 5) == 0.16730
    assert round(1.0 - vals["eps0"], 5) == 0.83270
    est = epsilon_d0(2, ESTIMATE)
    assert est["eps0"] > vals["eps0"]  # smaller sigma, larger threshold
    # monotone decreasing in sigma, and eps0 always beats sigma^-2
    prev = None
    for sigma in np.linspace(2.2, 9.0, 40):
        eps = 0.5 * (1 - np.sqrt(1 - 4 / sigma**2))
        assert eps > sigma**-2
        if prev is not None:
            assert eps < prev
        prev = eps
    with pytest.raises(ValidationError):
        epsilon_d0(7)


def test_saw_counts_against_naive_recursion():
    counts = saw_counts(2, 6)
    assert counts[:4] == [4, 12, 36, 100]
    for n in range(1, 7):
        assert counts[n - 1] == naive_saw_count(n)
    for n, c in enumerate(counts, start=1):
        assert c ** (1.0 / n) >= 2.6256


def test_saw_counts_validation():
    with pytest.raises(ValidationError):
        saw_counts(2, 15)
    from dre.errors import DimensionError

    with pytest.raises(DimensionError):
        saw_counts(3, 4)


def test_drift_formulas_values():
    d = drift_formulas("NE-SW", 0.5)
    assert d["delta_L0"] == pytest.approx(0.5)
    assert d["delta_U0"] == pytest.approx(1.0)
    assert d["delta_W"] == pytest.approx(1.0)
    for p in np.linspace(0.05, 0.95, 19):
        f = drift_formulas("NE-SW", float(p))
        assert f["delta_L0"] < f["delta_U0"]
        # the crossing condition is exactly the sign of the cubic
        assert (f["delta_W"] >= f["delta_L0"]) == (f["crossing_margin"] >= 0)
    s = drift_formulas("SWE-N", 0.5)
    assert s["seoa_mean_excursion"] == pytest.approx(0.5)


def test_step_laws_normalize():
    p = 0.37
    assert sum(lu_step_prob("U", j, p) for j in range(0, 200)) == pytest.approx(1.0)
    total = sum(lu_step_prob("L", j, p) for j in range(-200, 200))
    assert total == pytest.approx(1.0)
    assert sum(w_step_prob(j, p) for j in range(0, 300)) == pytest.approx(1.0)
    assert sum(seoa_excursion_prob(w, p) for w in range(-200, 200)) == pytest.approx(1.0)
    probs = dn_transition_probs(3, p)
    assert probs["die"] + probs["stay"] + probs["grow"] == pytest.approx(1.0)


def test_boundary_sequence_constant_w_all_left():
    w = BlockingFunction.from_values("upper", (0, 4), [2] * 5)
    seq = boundary_sequence(w, OTSP)
    assert set(steps(seq)) == {LEFT}
    assert seq[0] == (4, 3) and seq[-1] == (0, 3)


def test_boundary_sequence_staircase_diag():
    w = BlockingFunction.from_values("upper", (0, 4), [0, -1, -2, -3, -4])
    seq = boundary_sequence(w, OTSP)
    assert set(steps(seq)) == {DIAG_NW}


def test_boundary_sequence_otsp_no_repeats_and_moves():
    w = BlockingFunction.from_values("upper", (-2, 3), [4, 4, 2, 2, 1, -1])
    seq = boundary_sequence(w, OTSP)
    assert len(set(seq)) == len(seq)
    assert set(steps(seq)) <= {UP, LEFT, DIAG_NW}


def test_boundary_sequence_valley_up_and_down():
    w = BlockingFunction.from_values("upper", (0, 2), [2, 0, 2])
    seq = boundary_sequence(w, FSOSP)
    assert DOWN in steps(seq) and UP in steps(seq)
    # valley interior visited twice
    assert len(seq) > len(set(seq))


@given(lattice=st.sampled_from([OTSP, FSOSP]), x0=st.integers(-6, 0), data=st.data())
@settings(max_examples=300, deadline=None)
def test_boundary_sequence_matches_oracle_and_moves(lattice, x0, data):
    # columns across 0; few heights, so plateaus, valleys and long walls are common
    x1 = data.draw(st.integers(x0, x0 + 11), label="x1")
    values = data.draw(st.lists(st.integers(-4, 4), min_size=x1 - x0 + 1,
                                max_size=x1 - x0 + 1), label="w")
    if lattice == OTSP:
        values = sorted(values, reverse=True)
    w = BlockingFunction.from_values("upper", (x0, x1), values)
    seq = boundary_sequence(w, lattice)
    vertices, transitions = oracle_boundary_sequence(w)
    assert seq == vertices
    assert all(type(c) is int for v in seq for c in v)
    assert set(steps(seq)) <= LATTICE_STEPS[lattice]
    assert steps(seq) == [CONTOUR_MOVES[t] for t in transitions]
    assert seq[0] == (x1, w[x1] + 1) and seq[-1][0] == x0


def test_boundary_sequence_rejects_increasing_for_otsp():
    w = BlockingFunction.from_values("upper", (0, 2), [0, 1, 2])
    with pytest.raises(ValidationError):
        boundary_sequence(w, OTSP)
    boundary_sequence(w, FSOSP)  # fine on the five-move lattice


def test_exhaustive_duality_small():
    assert exhaustive_duality_check(OTSP, 3, 4, 0, 2) > 0
    assert exhaustive_duality_check(FSOSP, 2, 4, 0, 2) > 0
    with pytest.raises(ValidationError):
        exhaustive_duality_check(OTSP, 3, 4, -1, 2)


def test_verify_duality_all_open_env():
    window = Window.box((0, 3), (0, 3))
    arrows = np.full(window.shape, parse_token("NE"), dtype=np.uint16)
    measure = measure_for(ModelId("NE-SW", 0.5))
    env = EnvironmentGrid(window=window, arrows=arrows, measure=measure)
    w = BlockingFunction.from_values("upper", (0, 3), [2, 1, 1, 0])
    ok, bad = verify_duality(env, w, OTSP)
    assert ok and bad is None


def test_verify_duality_biconditional_by_mutation():
    # flipping a constrained contour vertex to SW must break both sides
    window = Window.box((0, 3), (0, 3))
    measure = measure_for(ModelId("NE-SW", 0.5))
    w = BlockingFunction.from_values("upper", (0, 3), [2, 1, 1, 0])
    base = np.full(window.shape, parse_token("NE"), dtype=np.uint16)
    flipped = 0
    for v in boundary_sequence(w, OTSP):
        if not window.contains(v) or not vertex_constrained(v, w, False, window):
            continue
        arrows = base.copy()
        arrows[window.index(v)] = parse_token("SW")
        env = EnvironmentGrid(window=window, arrows=arrows, measure=measure)
        ok_scan, _ = verify_blocking_function(env, w)
        ok_dual, bad = verify_duality(env, w, OTSP)
        assert not ok_scan and not ok_dual and bad == v
        flipped += 1
    assert flipped >= 3


_DUAL_CASES = {OTSP: ("NE-SW", "NE", "SW"), FSOSP: ("SWE-N", "N", "SWE")}


@given(lattice=st.sampled_from([OTSP, FSOSP]), monotone=st.booleans(),
       lo_x=st.integers(-4, -1), hi_x=st.integers(1, 4), lo_y=st.integers(-4, -1),
       hi_y=st.integers(1, 4), open_frac=st.floats(0.5, 1.0), seed=st.integers(0, 2**32),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_verify_duality_matches_contour_loop(lattice, monotone, lo_x, hi_x, lo_y, hi_y,
                                             open_frac, seed, data):
    # random and monotone functions, some of them reaching above or below
    # the window, on environments of the lattice's two atoms
    window = Window.box((lo_x, hi_x), (lo_y, hi_y))
    values = data.draw(st.lists(st.integers(lo_y - 2, hi_y + 1), min_size=window.shape[0],
                                max_size=window.shape[0]), label="w")
    if monotone or lattice == OTSP:
        values = sorted(values, reverse=True)
    w = BlockingFunction.from_values("upper", (lo_x, hi_x), values)
    model, open_token, closed_token = _DUAL_CASES[lattice]
    is_open = np.random.default_rng(seed).random(window.shape) < open_frac
    arrows = np.where(is_open, parse_token(open_token), parse_token(closed_token))
    env = EnvironmentGrid(window=window, arrows=arrows.astype(np.uint16),
                          measure=measure_for(ModelId(model, 0.5)))
    bad = oracle_contour_vertex(env, w, boundary_sequence(w, lattice),
                                parse_token(open_token), lattice == FSOSP)
    assert verify_duality(env, w, lattice) == (bad is None, bad)


def test_verify_duality_on_sampled_realizations():
    from dre.clusters import classify_b_shape

    verified = 0
    for seed in range(15):
        env = sample_environment(ModelId("NE-SW", 0.9), Window.centered(25), seed)
        rep = classify_b_shape(env, (0, 0))
        if rep.shape == "BlockedAbove":
            ok, bad = verify_duality(env, rep.blocking, OTSP)
            assert ok, (seed, bad)
            verified += 1
    assert verified >= 10


def test_bounds_report_keys():
    rep = bounds_report()
    d = rep.as_dict()
    assert d["eps0.d2"] == "0.16730"
    assert d["otsp.lower_bound.paper"] == "0.5466"
    assert d["otsp.lower_bound.computed"] == "0.54660"
    assert d["fsosp.lower_bound.computed"] == "0.43016"
    assert d["one_minus_eps0.d2"] == "0.83270"
    assert d["sigma.d5.upper"] == "8.8602"


# Model summary table, row by row: (theta_plus, theta_minus, theta) kinds.
TABLE_ROWS = {
    "N-.": ("zero", "zero", "zero"),
    "EW-.": ("zero", "zero", "zero"),
    "NE-.": ("phase_transition", "phase_transition", "zero"),
    "SWE-.": ("phase_transition", "phase_transition", "zero"),
    "NSEW-.": ("phase_transition", "phase_transition", "phase_transition"),
    "N-E": ("one", "zero", "zero"),
    "N-S": ("zero", "zero", "zero"),
    "EW-N": ("one", "positive", "zero"),
    "EW-E": ("one", "one", "zero"),
    "EW-NS": ("one", "positive", "positive"),
    "NE-N": ("one", "one", "zero"),
    "NE-NW": ("one", "one", "zero"),
    "NE-EW": ("one", "one", "zero"),
    "NE-W": ("one", "positive", "zero"),
    "NE-SW": ("one", "positive", "phase_transition"),
    "SWE-S": ("one", "one", "zero"),
    "SWE-E": ("one", "one", "zero"),
    "SWE-N": ("one", "positive", "phase_transition"),
    "SWE-EW": ("one", "one", "one"),
    "SWE-NS": ("one", "one", "one"),
    "SWE-NE": ("one", "one", "phase_transition"),
    "SWE-SW": ("one", "one", "zero"),
    "SWE-NSE": ("one", "one", "one"),
    "SWE-NWE": ("one", "one", "one"),
    "NSEW-N": ("one", "one", "phase_transition"),
    "NSEW-NE": ("one", "one", "phase_transition"),
    "NSEW-EW": ("one", "one", "one"),
    "NSEW-SWE": ("one", "one", "one"),
}


@pytest.mark.parametrize("name,expected", sorted(TABLE_ROWS.items()))
def test_static_classification_table(name, expected):
    cls = static_classify(ModelId(name, 0.5))
    assert (cls.theta_plus.kind, cls.theta_minus.kind, cls.theta.kind) == expected


def test_static_classify_details():
    cls = static_classify(ModelId("NE-SW", 0.5))
    assert "p_c^OTSP" in cls.theta.detail
    up_right = static_classify(ModelId("N-E", 0.5))
    assert up_right.theta_plus.kind == "one"
    assert up_right.theta_minus.kind == "zero"
    swe_ew = static_classify(ModelId("SWE-EW", 0.5))
    assert swe_ew.theta.kind == "one"
    raw = static_classify(SupportMeasure(2, ((parse_token("NE"), 0.25),
                                             (parse_token("SE"), 0.25),
                                             (parse_token("SW"), 0.25),
                                             (parse_token("NW"), 0.25))))
    assert raw.theta_plus.kind == "unknown"


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.95])
def test_orthant_d2_classified_as_ne_sw(p):
    # the d=2 orthant model is the NE-SW measure, so it gets NE-SW's rows
    orthant, ne_sw = static_classify(ModelId("orthant", p)), static_classify(ModelId("NE-SW", p))
    assert measure_for(ModelId("orthant", p)) == measure_for(ModelId("NE-SW", p))
    assert ((orthant.theta_plus, orthant.theta_minus, orthant.theta)
            == (ne_sw.theta_plus, ne_sw.theta_minus, ne_sw.theta))
    assert orthant.model == "orthant" and "catalog_table" in orthant.notes
    raw = static_classify(measure_for(ModelId("orthant", p)))
    assert (raw.model, raw.theta, raw.notes) == ("raw", ne_sw.theta, ne_sw.notes)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_orthant_saw_threshold_beyond_d2(d):
    cls = static_classify(ModelId("orthant", 0.5, d))
    eps = epsilon_d0(d)["eps0"]
    assert "saw_threshold" in cls.notes and "catalog_table" not in cls.notes
    assert cls.theta.kind == "unknown"
    assert f"p < {eps:.5f} or p > {1 - eps:.5f}" in cls.theta.detail
    raw = static_classify(measure_for(ModelId("orthant", 0.5, d)))
    assert (raw.theta, raw.notes) == (cls.theta, cls.notes)
