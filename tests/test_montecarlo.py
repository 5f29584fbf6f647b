import csv
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dre import montecarlo, rng
from dre.bitgrid import pack_rows
from dre.clusters import backward_cluster, forward_cluster
from dre.directions import NE_MASK, parse_token
from dre.env import EnvironmentGrid, Window, sample_environment
from dre.errors import ValidationError
from dre.measure import SupportMeasure
from dre.models import ModelId, measure_for, two_valued
from dre.montecarlo import (
    CSV_HEADER,
    REACH_B,
    REACH_C,
    REACH_M,
    SIZE_M,
    TrialPlan,
    _is_ne_oriented,
    _lazy_sweep,
    _oriented_reach_trials,
    _otsp_reach_trials,
    _packed_values,
    _row_propagate,
    _up_or_right_fronts,
    bisect_pc,
    check_theta_identity,
    classify_shapes,
    dn_transition_test,
    lu_walk_test,
    m_size_stats,
    martingale_test,
    otsp_reach_estimate,
    run_plan,
    seoa_excursion_test,
    survival_curve,
    theta_minus_curve,
    w_walk_drift_test,
    wn_crossing_test,
    write_records_csv,
    write_records_jsonl,
)

from oracles import otsp_reach_oracle

OPEN_P = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def test_plan_validation():
    with pytest.raises(ValidationError):
        TrialPlan(ModelId("NE-.", 0.5), 10, 0, 0)
    with pytest.raises(ValidationError):
        TrialPlan(ModelId("NE-.", 0.5), 10, 5, 0, statistic="bogus")


def test_deterministic_measure_reaches_always():
    m = SupportMeasure(2, ((parse_token("NE"), 1.0),))
    rec = run_plan(TrialPlan(m, 15, 50, 0, REACH_C))
    assert rec.estimate == 1.0 and rec.se == 0.0


def test_batch_size_does_not_change_estimates(monkeypatch):
    for stat in (REACH_B, SIZE_M):
        plan = TrialPlan(ModelId("NE-SW", 0.6), 15, 40, 9, stat)
        records = []
        for chunk in (1, 3, plan.trials + 1):
            monkeypatch.setattr(montecarlo, "REACH_CHUNK", chunk)
            records.append(run_plan(plan))
        a = records[0]
        for b in records[1:]:
            assert a.estimate == b.estimate and a.se == b.se


def test_fast_oriented_path_matches_generic():
    model = ModelId("NE-.", 0.7)
    measure = measure_for(model)
    assert _is_ne_oriented(measure)
    for stat, backward in ((REACH_C, False), (REACH_B, True)):
        fast = _oriented_reach_trials(measure, 20, 40, 13, backward=backward)
        slow = _packed_values(measure, 20, 40, 13, stat).astype(bool)
        assert np.array_equal(fast, slow)


@given(tokens=st.permutations([".", "E", "N", "NE"]), p=OPEN_P, radius=st.integers(1, 12),
       seed=st.integers(0, 2**32), batch=st.integers(1, 4),
       mode=st.sampled_from(["forward", "backward", "live origin"]))
@settings(max_examples=60, deadline=None)
def test_oriented_sweep_matches_generic(tokens, p, radius, seed, batch, mode):
    measure = two_valued(tokens[0], tokens[1], p)
    assert _is_ne_oriented(measure)
    trials = 9
    origin = parse_token(tokens[0]) | parse_token(tokens[1]) if mode == "live origin" else None
    fast = _oriented_reach_trials(measure, radius, trials, seed, backward=mode == "backward",
                                  origin=origin, batch=batch)
    slow = _packed_values(measure, radius, trials, seed,
                          REACH_B if mode == "backward" else REACH_C, origin).astype(bool)
    assert np.array_equal(fast, slow)


@given(p=OPEN_P, radius=st.integers(1, 12), trials=st.integers(1, 12),
       seed=st.integers(0, 2**32), batch=st.integers(1, 5), origin_open=st.booleans())
@settings(max_examples=60, deadline=None)
def test_otsp_sweep_matches_oracle(p, radius, trials, seed, batch, origin_open):
    got = _otsp_reach_trials(p, radius, trials, seed, origin_open=origin_open, batch=batch)
    assert got.tolist() == otsp_reach_oracle(p, radius, trials, seed, origin_open)


def _naive_closure(row, gate):
    out = row.copy()
    for i in range(1, row.shape[1]):
        out[:, i] |= out[:, i - 1] & gate[:, i - 1]
    return out


@pytest.mark.parametrize("n", [63, 64, 65, 129])
def test_row_propagate_matches_naive_loop(n):
    gen = np.random.default_rng(n)
    rows, gates = [], []
    for density in (0.5, 0.9, 0.99, 1.0):  # dense gates carry across words
        rows.append(gen.random((32, n)) < 0.05)
        gates.append(gen.random((32, n)) < density)
    one = np.zeros((1, n), dtype=bool)
    one[0, 0] = True
    rows.append(one)                               # the corner alone ...
    gates.append(np.ones((1, n), dtype=bool))      # ... runs the whole row
    row, gate = np.concatenate(rows), np.concatenate(gates)
    gate[:, -1] = False
    got = _row_propagate(pack_rows(row), pack_rows(gate))
    bits = np.unpackbits(got.view(np.uint8), axis=1, bitorder="little").astype(bool)
    assert not bits[:, n:].any()
    assert np.array_equal(bits[:, :n], _naive_closure(row, gate))
    assert bits[-1].sum() == n


@pytest.mark.parametrize("radius", [62, 63, 64, 65, 127, 128])
def test_sweeps_at_word_boundaries(radius):
    # rows of radius + 1 bits end at, or just past, a 64-bit word
    measure = measure_for(ModelId("NE-.", 0.75))
    for stat, backward, origin in ((REACH_C, False, None), (REACH_B, True, None),
                                   (REACH_C, False, NE_MASK)):
        fast = _oriented_reach_trials(measure, radius, 8, radius, backward, origin, batch=3)
        slow = _packed_values(measure, radius, 8, radius, stat, origin).astype(bool)
        assert np.array_equal(fast, slow)
    got = _otsp_reach_trials(0.65, radius, 6, radius, origin_open=True, batch=4)
    assert got.tolist() == otsp_reach_oracle(0.65, radius, 6, radius, origin_open=True)


@pytest.mark.parametrize("n", [66, 129, 130])
def test_diagonal_step_carries_across_words(n):
    # sites open on the diagonal only: the cluster climbs it by diagonal
    # steps alone, through bit 63 -> 64; trial 1's stair is closed at row 64
    broken = rng.hash_parts(0, (np.arange(2, dtype=np.int64),))[1]

    def gates(seeds, k):
        is_open = np.zeros((len(seeds), n), dtype=bool)
        is_open[:, k] = (seeds != broken) | (k != 64)
        gate = pack_rows(is_open)
        return gate, gate

    got = _lazy_sweep(0, 2, 256, n, gates, up_at_source=True, diagonal=True)
    assert got.tolist() == [True, False]


def test_size_statistic_full_communication():
    m = SupportMeasure(2, ((parse_token("NSEW"), 1.0),))
    rec = run_plan(TrialPlan(m, 5, 3, 0, SIZE_M))
    assert rec.estimate == 11 * 11


def test_run_plan_record_fields():
    rec = run_plan(TrialPlan(ModelId("NE-.", 0.75), 25, 200, 5, REACH_C))
    assert rec.model == "NE-." and rec.radius == 25 and rec.trials == 200
    assert 0.0 <= rec.estimate <= 1.0
    assert rec.se == pytest.approx(
        math.sqrt(rec.estimate * (1 - rec.estimate) / rec.trials))


def test_theta_plus_regimes_oriented_percolation():
    sub = run_plan(TrialPlan(ModelId("NE-.", 0.5), 100, 2000, 21, REACH_C))
    sup = run_plan(TrialPlan(ModelId("NE-.", 0.75), 100, 2000, 22, REACH_C))
    assert sub.estimate <= 0.05
    assert sup.estimate >= 0.1
    # separated by far more than the 3-sigma bands
    assert sup.estimate - 3 * sup.se > sub.estimate + 3 * sub.se


def test_identity_small_scale():
    rep = check_theta_identity(ModelId("NE-.", 0.75), 40, 3000, 17)
    assert abs(rep.z) <= 4.0
    with pytest.raises(ValidationError):
        check_theta_identity(ModelId("NE-SW", 0.5), 10, 10)


def test_identity_site_percolation_model():
    rep = check_theta_identity(ModelId("NSEW-.", 0.65), 30, 2000, 23)
    assert abs(rep.z) <= 4.0


def _identity_sides(env: EnvironmentGrid, live: int) -> tuple[bool, bool]:
    """Edge contact of the origin's backward cluster in env, and of its forward
    cluster in the point reflection of env with the origin set to live."""
    arrows = env.arrows[::-1, ::-1].copy()
    centre = env.window.index((0, 0))
    arrows[centre] = live
    reflected = EnvironmentGrid(env.window, arrows)
    return (backward_cluster(env, (0, 0)).touches_boundary,
            forward_cluster(reflected, (0, 0)).touches_boundary)


@pytest.mark.parametrize("name, forward_only", [("NE-.", 128), ("SWE-.", 64), ("NSEW-.", 32)])
def test_identity_implication_exhaustive(name, forward_only):
    # backward contact implies reflected live-origin forward contact, which gives
    # theta_plus >= p * theta_minus at every M; the converse fails when every
    # neighbor that could step into the origin is empty
    live = parse_token(name.split("-")[0])
    window = Window.centered(1, 2)
    seen = {(False, False): 0, (False, True): 0, (True, False): 0, (True, True): 0}
    for bits in range(512):
        arrows = np.array([live * (bits >> i & 1) for i in range(9)],
                          dtype=np.uint16).reshape(window.shape)
        seen[_identity_sides(EnvironmentGrid(window, arrows), live)] += 1
    assert seen[(True, False)] == 0
    assert seen[(False, True)] == forward_only


@given(name=st.sampled_from(["NE-.", "SWE-.", "NSEW-."]), p=OPEN_P,
       radius=st.integers(1, 8), seed=st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_identity_implication_random_windows(name, p, radius, seed):
    env = sample_environment(ModelId(name, p), Window.centered(radius, 2), seed)
    backward, forward = _identity_sides(env, parse_token(name.split("-")[0]))
    assert forward or not backward


def test_bisect_synthetic_step():
    res = bisect_pc(lambda p: float(p >= 0.5), radius=10, tol=0.004)
    assert abs(res.p_hat - 0.5) <= 0.004


def test_bisect_allowlist_and_bracketing():
    with pytest.raises(ValidationError):
        bisect_pc("NE-SW", radius=10)
    with pytest.raises(ValidationError):
        bisect_pc(lambda p: 1.0, radius=10)  # lower endpoint already above target


def test_survival_curve_grid_validation():
    with pytest.raises(ValidationError):
        survival_curve("NE-.", [0.5, 0.5], 10, 5)
    recs = survival_curve("NE-.", [0.4, 0.8], 15, 50, master_seed=3)
    assert recs[0].estimate <= recs[1].estimate


def test_dn_transitions_small():
    rep = dn_transition_test(0.5, samples=20000, k_max=3, master_seed=2)
    row1 = rep.rows[0]
    assert row1["p_die"] == pytest.approx(0.5)
    assert row1["p_stay"] == pytest.approx(0.125)
    assert rep.max_abs_z <= 4.0


def test_lu_walk_small():
    rep = lu_walk_test(0.5, samples=20000, master_seed=3)
    assert rep.drift_du == pytest.approx(1.0)
    assert rep.drift_dl == pytest.approx(0.5)
    assert rep.max_abs_z <= 4.0


def test_seoa_and_w_walk_tests():
    rep = seoa_excursion_test(0.5, 20000, master_seed=4)
    assert rep.theory == pytest.approx(0.5)
    assert abs(rep.z) <= 4.0
    # at the drift root the mean excursion is statistically zero
    from dre.bounds import CUBICS

    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = (lo + hi) / 2
        if CUBICS["FSOSP_bound"](1.0 - mid) > 0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2  # root of p^3 - p^2 + 2p - 1 in the model parameter
    at_root = seoa_excursion_test(root, 40000, master_seed=5)
    assert abs(at_root.theory) < 1e-6
    assert abs(at_root.z) <= 4.0
    wrep = w_walk_drift_test(0.5, 20000, master_seed=6)
    assert wrep.theory == pytest.approx(1.0)
    assert abs(wrep.z) <= 4.0


def test_martingale_small():
    rep = martingale_test(0.5, 30, 2000, n_levels=12, master_seed=7)
    assert rep.means[0] == 1.0
    assert rep.max_abs_z <= 4.0
    with pytest.raises(ValidationError):
        martingale_test(0.5, 10, 100, n_levels=10)


@pytest.mark.parametrize("check", [
    lambda n: martingale_test(0.5, 10, n, n_levels=5),
    lambda n: lu_walk_test(0.5, n),
    lambda n: seoa_excursion_test(0.5, n),
    lambda n: w_walk_drift_test(0.5, n),
], ids=["martingale", "lu_walk", "seoa_excursion", "w_walk_drift"])
def test_one_sample_has_no_standard_error(check):
    for n in (0, 1):
        with pytest.raises(ValidationError):
            check(n)
    check(2)  # no nan, no RuntimeWarning


def test_theta_minus_curve_decreasing():
    recs = theta_minus_curve(0.5, (10, 20, 40), 3000, master_seed=8)
    ests = [r.estimate for r in recs]
    assert ests[0] > ests[1] > ests[2] > 0


def test_up_or_right_nested_windows():
    # one trial per master seed, so each estimate is that trial's edge contact
    radii = (1, 2, 3, 5, 8, 13, 21)
    for seed in range(60):
        contact = [r.estimate for r in theta_minus_curve(0.5, radii, 1, master_seed=seed)]
        assert contact == sorted(contact, reverse=True), (seed, contact)
    # fronts inside the smallest window do not see the window
    levels = [np.concatenate([f.sum(axis=1) for f in itertools.islice(
                  _up_or_right_fronts(0.45, radius, 200, 3), 6)])
              for radius in (5, 9, 14)]
    assert all(np.array_equal(levels[0], other) for other in levels[1:])


def test_m_size_stats_nested_windows():
    # one trial per master seed, so each mean is that trial's communicating-cluster
    # size; nested windows only add paths.  Edge contact is not monotone in M.
    radii = (3, 5, 8, 13)
    for model in (ModelId("NE-SW", 0.9), ModelId("EW-NS", 0.5)):
        for seed in range(40):
            rows = m_size_stats(model, radii, 1, master_seed=seed)
            sizes = [row.mean_size for row in rows]
            assert sizes == sorted(sizes), (model, seed, sizes)
            assert all(row.se_size == 0.0 for row in rows)  # one trial, as in run_plan


@pytest.mark.parametrize("p", [math.nan, 0.0, 1.0, 1.5, -0.1])
def test_p_outside_unit_interval_is_rejected(p):
    with pytest.raises(ValidationError):
        otsp_reach_estimate(p, 5, 50)
    with pytest.raises(ValidationError):
        martingale_test(p, 10, 20, n_levels=5)
    with pytest.raises(ValidationError):
        theta_minus_curve(p, [5], 20)


def test_m_size_stats_nested_stability():
    rows = m_size_stats(ModelId("NE-SW", 0.9), (15, 30), 300, master_seed=9)
    assert rows[0].boundary_rate >= rows[1].boundary_rate
    assert rows[1].mean_size >= rows[0].mean_size  # nested windows only add sites


def test_classify_shapes_census():
    census = classify_shapes(ModelId("NE-SW", 0.9), 25, 30, master_seed=10,
                             verify_dual=True)
    blocked = census.counts.get("BlockedAbove", 0)
    assert blocked >= 25
    assert census.blocked_above_verified == blocked
    assert census.blocked_above_monotone == blocked


def test_wn_crossing_rates():
    hi = wn_crossing_test(0.5, trials=400, levels=200, master_seed=11)
    lo = wn_crossing_test(0.3, trials=400, levels=200, master_seed=11)
    assert hi.crossing_rate > lo.crossing_rate
    assert hi.crossing_rate >= 0.95
    assert all(abs(c["z"]) <= 4.0 for c in hi.w_cells if c["prob"] > 1e-4)


def test_otsp_estimates_extremes():
    low = otsp_reach_estimate(0.25, 30, 200, 12)
    high = otsp_reach_estimate(0.92, 30, 200, 12, origin_open=True)
    assert low.estimate <= 0.05
    assert high.estimate >= 0.9
    # without conditioning the dead-origin mass caps the reach probability
    plain = otsp_reach_estimate(0.92, 30, 200, 12)
    assert plain.estimate <= high.estimate


def test_record_serialization_roundtrip():
    rec = run_plan(TrialPlan(ModelId("NE-.", 0.7), 12, 30, 1, REACH_C))
    buf = io.StringIO()
    write_records_csv([rec], buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == CSV_HEADER
    assert rows[1][0] == "NE-." and float(rows[1][5]) == rec.estimate
    buf = io.StringIO()
    write_records_jsonl([rec], buf)
    obj = json.loads(buf.getvalue())
    assert obj["estimate"] == rec.estimate and obj["M"] == 12
