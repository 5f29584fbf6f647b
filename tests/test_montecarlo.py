import csv
import io
import json
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dre import montecarlo, rng
from dre.bitgrid import move_masks
from dre.bounds import w_step_prob
from dre.clusters import backward_cluster, forward_cluster
from dre.directions import BIT_E, BIT_N, NE_MASK, parse_token
from dre.env import EnvironmentGrid, Window, sample_environment, sample_masks
from dre.errors import DimensionError, ValidationError
from dre.measure import SupportMeasure
from dre.models import ModelId, measure_for
from dre.montecarlo import (
    CSV_HEADER,
    EstimateRecord,
    ExcursionReport,
    IdentityReport,
    REACH_B,
    REACH_C,
    REACH_M,
    REACH_OTSP,
    SIZE_M,
    TrialPlan,
    WnCrossingReport,
    _is_ne_oriented,
    _oriented_reach_trials,
    _packed_chunks,
    _packed_values,
    _row_gates,
    _row_propagate,
    _site_draw,
    _statistic_values,
    _trial_columns,
    _up_or_right_hash,
    _z,
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

from conftest import MIXED_MEASURES, count_passed
from dre.walks import CoalescenceStats, coalescence_stats
from oracles import coalescence_oracle, float_atoms, otsp_reach_oracle, wn_crossing_oracle

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


# raw d=2 measures (E=1, N=2, W=4, S=8) beside the catalog's two-atom ones;
# the last three put their last cumulative threshold at or near 2^53
RAW_MEASURES = [
    SupportMeasure(2, ((0b0011, 0.3), (0b1100, 0.45), (0b0101, 0.25))),
    SupportMeasure(2, ((0, 0.15), (0b0011, 0.3), (0b1100, 0.3), (0b0111, 0.25))),
] + [SupportMeasure(2, tuple(zip((0b0011, 0b1100, 0b0101), probs)))
     for probs in ((0.5, 0.5, 1e-17), (0.25, 0.75 - 1e-16, 1e-16), (0.5, 0.5 + 5e-13, 1e-13))]


@st.composite
def _windows(draw):
    """Off-centre windows 3-130 columns wide with the origin off their edge ring."""
    width, height = draw(st.integers(3, 130)), draw(st.integers(3, 9))
    lo_x = -draw(st.integers(1, width - 2))
    lo_y = -draw(st.integers(1, height - 2))
    return Window.box((lo_x, lo_x + width - 1), (lo_y, lo_y + height - 1))


@given(measure=st.sampled_from([measure_for(m) for m in MIXED_MEASURES] + RAW_MEASURES),
       window=_windows(), seed=st.integers(-(2**63), 2**64 - 1), trials=st.integers(1, 18),
       origin=st.none() | st.integers(0, 15))
@settings(max_examples=60, deadline=None)
def test_row_order_moves_equal_packed_sampled_masks(measure, window, seed, trials, origin):
    # the chunks hash in row order and pack straight from the hash
    got = np.concatenate(list(_packed_chunks(measure, window, seed, trials, origin)), axis=1)
    want = []
    for t in range(trials):
        arrows = sample_masks(measure, window, rng.spawn_seed(seed, t))
        if origin is not None:
            arrows[window.index((0, 0))] = origin
        want.append(move_masks(arrows))
    assert np.array_equal(got, np.stack(want, axis=1))


def test_batch_size_does_not_change_estimates(monkeypatch):
    for model, stat in ((ModelId("NE-SW", 0.6), REACH_B), (ModelId("NE-SW", 0.6), SIZE_M),
                        (RAW_MEASURES[1], REACH_C)):
        plan = TrialPlan(model, 15, 40, 9, stat)
        records = []
        for chunk in (1, 3, plan.trials + 1):
            monkeypatch.setattr(montecarlo, "REACH_CHUNK", chunk)
            records.append(run_plan(plan))
        a = records[0]
        for b in records[1:]:
            assert a.estimate == b.estimate and a.se == b.se


def _ne_sweep(measure, radius, trials, seed, backward, live_origin=False, batch=256):
    """The row sweep as run_plan runs it, batch trials at a time."""
    assert _is_ne_oriented(measure)  # so the dispatcher picks the sweep
    with patch.object(montecarlo, "SWEEP_BATCH", batch):
        return _statistic_values(measure, radius, trials, seed, REACH_B if backward else REACH_C,
                                 live_origin)


def _otsp_sweep(p, radius, trials, seed, origin_open, batch):
    """The oriented triangular lattice as otsp_reach_estimate runs it."""
    with patch.object(montecarlo, "SWEEP_BATCH", batch):
        return _statistic_values(measure_for(ModelId("NE-.", p)), radius, trials, seed,
                                 REACH_OTSP, origin_open)


def test_fast_oriented_path_matches_generic():
    model = ModelId("NE-.", 0.7)
    measure = measure_for(model)
    assert _is_ne_oriented(measure)
    for stat, backward in ((REACH_C, False), (REACH_B, True)):
        fast = _ne_sweep(measure, 20, 40, 13, backward)
        slow = _packed_values(measure, 20, 40, 13, stat).astype(bool)
        assert np.array_equal(fast, slow)


def test_statistic_values_rejects_names_it_cannot_run():
    # an unknown name, or otsp's sweep on a measure it cannot sweep, is an
    # error, not the generic path's cluster sizes
    ne_sw, ne = measure_for(ModelId("NE-SW", 0.5)), measure_for(ModelId("NE-.", 0.5))
    for measure, statistic in ((ne_sw, "bogus"), (ne, "bogus"), (ne_sw, REACH_OTSP)):
        with pytest.raises(ValidationError, match="statistic"):
            _statistic_values(measure, 3, 4, 0, statistic)


@st.composite
def _ne_oriented_measures(draw):
    """Measures of 1-4 of the atoms NE, E, N and none, in any order; with
    top, the last atom gets 1e-17, so the last cumulative sum rounds to 1
    and its threshold to 2^53: no draw passes it, and it makes no plane."""
    masks = draw(st.permutations([NE_MASK, 1, 2, 0]))[:draw(st.integers(1, 4))]
    weights = [draw(st.floats(0.05, 1.0)) for _ in masks]
    top = len(masks) > 1 and draw(st.booleans())
    probs = [w / sum(weights[:-1] if top else weights) for w in weights]
    if top:
        probs[-1] = 1e-17
    measure = SupportMeasure(2, tuple(zip(masks, probs)))
    assume(not top or measure.thresholds[-1] == 2**53)  # the sum may round below 1
    return measure


@given(measure=_ne_oriented_measures(), radius=st.integers(1, 12),
       seed=st.integers(0, 2**32), batch=st.integers(1, 4),
       mode=st.sampled_from(["forward", "backward", "live origin"]))
@settings(max_examples=80, deadline=None)
def test_oriented_sweep_matches_generic(measure, radius, seed, batch, mode):
    assert _is_ne_oriented(measure)
    trials = 9
    origin = int(np.bitwise_or.reduce(measure.masks)) if mode == "live origin" else None
    fast = _ne_sweep(measure, radius, trials, seed, mode == "backward", origin is not None, batch)
    slow = _packed_values(measure, radius, trials, seed,
                          REACH_B if mode == "backward" else REACH_C, origin).astype(bool)
    assert np.array_equal(fast, slow)


def _int_row(bits):
    """(B, n) bools as the sweep's int row: trial t's column i in bit t * w + i,
    w = 64 * ((n + 64) // 64)."""
    b, n = bits.shape
    padded = np.zeros((b, 64 * ((n + 64) // 64)), dtype=bool)
    padded[:, :n] = bits
    return int.from_bytes(np.packbits(padded, axis=-1, bitorder="little"), "little")


def _int_bits(row, b, n):
    """The sweep's int row of b trials of n columns as (B, w) bools."""
    nbytes = 8 * ((n + 64) // 64)
    data = np.frombuffer(row.to_bytes(b * nbytes, "little"), np.uint8).reshape(b, nbytes)
    return np.unpackbits(data, axis=1, bitorder="little").astype(bool)


# (live trials, row) as a sweep draws them: a batch's rows in order, with
# trials dropped, then the next batch, which starts a new key state
GATE_CALLS = [([0, 1, 2, 3], 0), ([0, 1, 2, 3], 1), ([0, 2, 3], 2), ([2], 3), ([4, 5], 0),
              ([4, 5], 1), ([5], 2)]


@given(measure=_ne_oriented_measures(), n=st.sampled_from([1, 2, 5, 63, 64, 65, 129]),
       seed=st.integers(0, 2**64 - 1),
       mode=st.sampled_from(["forward", "backward", "origin", "otsp"]),
       origin=st.integers(0, NE_MASK))
@settings(max_examples=80, deadline=None)
def test_packed_gates_match_atom_lookup(measure, n, seed, mode, origin):
    # every row's packed gates, built from the site draw's hashes with its
    # key state compacted as the sweep does, against a lookup of each site's
    # atom mask on the same keys
    backward, sign = mode == "backward", -1 if mode == "backward" else 1
    if mode == "otsp":  # NE-.'s gates: an open site (atom 0) carries NE
        measure, origin = measure_for(ModelId("NE-.", 0.6)), NE_MASK if origin & 1 else None
    elif mode != "origin":
        origin = None
    thresholds, masks = measure.thresholds, measure.masks
    xs = (1 if mode in ("forward", "origin") else -1) * np.arange(n)  # otsp runs west
    start, finish = _site_draw(seed, 6, xs)
    above = np.zeros((4, 64 * ((n + 64) // 64)), dtype=bool)  # the sweep's buffer at batch 4
    for live, k in GATE_CALLS:
        live = np.array(live)
        state = start(live) if k == 0 else state[np.isin(have, live)]
        have = live
        got = [plane[0] for plane in _row_gates(finish(state, [sign * k], 0, n), 0, thresholds,
                                                masks.tolist(), _trial_columns(len(live), n),
                                                backward, origin if k == 0 else None, above)]
        seeds = [rng.spawn_seed(seed, t) for t in live.tolist()]
        arrows = masks[np.array([count_passed(s, (xs, sign * k), thresholds) for s in seeds])]
        for plane, bit in zip(got, (BIT_E, BIT_N)):
            want = (arrows & bit) != 0
            if k == 0 and origin is not None:
                want[:, 0] = bool(origin & bit)
            if backward and bit == BIT_E:
                want[:, :-1] = want[:, 1:]
            assert plane == _int_row(want), (live, k, bit)


@given(p=OPEN_P, radius=st.integers(1, 12), trials=st.integers(1, 12),
       seed=st.integers(0, 2**32), batch=st.integers(1, 5), origin_open=st.booleans())
@settings(max_examples=60, deadline=None)
def test_otsp_sweep_matches_oracle(p, radius, trials, seed, batch, origin_open):
    want = otsp_reach_oracle(p, radius, trials, seed, origin_open)
    assert _otsp_sweep(p, radius, trials, seed, origin_open, batch).tolist() == want
    assert otsp_reach_estimate(p, radius, trials, seed, origin_open).estimate == np.mean(want)


def _naive_closure(row, gate):
    out = row.copy()
    for i in range(1, row.shape[1]):
        out[:, i] |= out[:, i - 1] & gate[:, i - 1]
    return out


@pytest.mark.parametrize("n", [63, 64, 65, 128, 129, 193])
def test_row_propagate_matches_naive_loop(n):
    gen = np.random.default_rng(n)
    rows, gates = [], []
    for density in (0.5, 0.9, 0.99, 1.0):  # dense gates carry across words
        rows.append(gen.random((32, n)) < 0.05)
        gates.append(gen.random((32, n)) < density)
    # all gates open but one and the row's bits in word 0: every later word
    # before the closed gate sums to all ones, so word 0's carry must ripple
    # through them; a bit past the closed gate starts a second run
    for cut in (70, 127, 128, 150, n - 1):
        cut = min(cut, n - 1)
        gate = np.ones((2, n), dtype=bool)
        gate[:, cut] = False
        row = np.zeros((2, n), dtype=bool)
        row[:, gen.integers(0, min(n, 64))] = True
        row[1, min(cut + 1, n - 1)] = True
        rows.append(row)
        gates.append(gate)
    one = np.zeros((1, n), dtype=bool)
    one[0, 0] = True
    rows.append(one)                               # the corner alone ...
    gates.append(np.ones((1, n), dtype=bool))      # ... runs the whole row
    row, gate = np.concatenate(rows), np.concatenate(gates)
    gate[:, -1] = False
    valid = _trial_columns(len(row), n)[0]
    bits = _int_bits(_row_propagate(_int_row(row), _int_row(gate), valid), len(row), n)
    assert not bits[:, n:].any()
    assert np.array_equal(bits[:, :n], _naive_closure(row, gate))
    assert bits[-1].sum() == n
    # an open gate at the last column carries past the row, never into the next
    gate[:, -1] = True
    bits = _int_bits(_row_propagate(_int_row(row), _int_row(gate), valid), len(row), n)
    assert np.array_equal(bits[:, :n], _naive_closure(row, gate))


@pytest.mark.parametrize("radius", [62, 63, 64, 65, 127, 128, 191])
def test_sweeps_at_word_boundaries(radius):
    # rows of radius + 1 bits end at, or just past, a 64-bit word; at 64, 128
    # and 192 bits a guard word follows each trial's row.  NE-.'s E and N
    # gates are one plane; on the second measure they differ
    mixed = SupportMeasure(2, ((NE_MASK, 0.5), (BIT_E, 0.2), (BIT_N, 0.2), (0, 0.1)))
    for measure in (measure_for(ModelId("NE-.", 0.75)), mixed):
        for stat, backward, origin in ((REACH_C, False, None), (REACH_B, True, None),
                                       (REACH_C, False, NE_MASK)):
            fast = _ne_sweep(measure, radius, 8, radius, backward, origin is not None, batch=3)
            slow = _packed_values(measure, radius, 8, radius, stat, origin).astype(bool)
            assert np.array_equal(fast, slow), (measure, stat, origin)
    got = _otsp_sweep(0.65, radius, 6, radius, True, batch=4)
    assert got.tolist() == otsp_reach_oracle(0.65, radius, 6, radius, origin_open=True)


@pytest.mark.parametrize("n", [66, 129, 130])
def test_diagonal_step_carries_across_words(n):
    # sites open (hash 0: atom 0 of NE-., NE) on the diagonal only and
    # closed (all ones) elsewhere: the cluster climbs the diagonal by
    # diagonal steps alone, through bit 63 -> 64; trial 1's stair is closed
    # at row 64
    closed = np.uint64(2**64 - 1)

    def finish(live, ys, lo, hi):
        h = np.full((len(ys), len(live), n), closed)
        for j, y in enumerate(ys):
            h[j, :, y] = np.where((live != 1) | (y != 64), 0, closed)
        return h[:, :, lo:hi]

    got = _oriented_reach_trials(measure_for(ModelId("NE-.", 0.5)), 2,
                                 (lambda live: live, finish), n, False, diagonal=True)
    assert got.tolist() == [True, False]


@pytest.mark.parametrize("n", [5, 64, 65])
def test_block_keeps_contact_of_a_row_that_dies(n):
    # atoms NE (hash 0), E (2^63) and none (all ones).  Trial 0 climbs from
    # the corner to a row of E sites, meets the last column in row 1, and has
    # no N gate to leave it: it dies in row 2, within the sweep's first block
    # of rows.  Trial 1 steps E from the corner onto a closed site and dies
    # in row 1.
    measure = SupportMeasure(2, ((NE_MASK, 0.25), (BIT_E, 0.5), (0, 0.25)))
    ne, e, none = np.uint64(0), np.uint64(2**63), np.uint64(2**64 - 1)

    def finish(live, ys, lo, hi):
        h = np.full((len(ys), len(live), n), none)
        for j, y in enumerate(ys):
            if y == 0:
                h[j, :, 0] = np.where(live == 0, ne, e)
            elif y == 1:
                h[j, live == 0] = e
        return h[:, :, lo:hi]

    got = _oriented_reach_trials(measure, 2, (lambda live: live, finish), n, False)
    assert got.tolist() == [True, False]


def test_band_widens_within_a_block():
    # atoms NE (hash 0), E (2^63) and none (all ones) on 201 columns, past the
    # sweep's first band.  From the corner, both trials step up into row 1,
    # where trial 0's E run reaches the last column within the first block,
    # so the block is redone on ever wider bands; trial 1's run stops at
    # column 100 and it dies in row 2
    n = 201
    measure = SupportMeasure(2, ((NE_MASK, 0.25), (BIT_E, 0.5), (0, 0.25)))
    ne, e, none = np.uint64(0), np.uint64(2**63), np.uint64(2**64 - 1)
    widths = []

    def finish(live, ys, lo, hi):
        widths.append(hi - lo)
        h = np.full((len(ys), len(live), n), none)
        for j, y in enumerate(ys):
            if y == 0:
                h[j, :, 0] = ne
            elif y == 1:
                h[j] = e
                h[j, live == 1, 100] = none
        return h[:, :, lo:hi]

    got = _oriented_reach_trials(measure, 2, (lambda live: live, finish), n, False)
    assert got.tolist() == [True, False]
    assert min(widths) < n


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


def test_bisect_resolves_otsp_like_any_name():
    # the name is stripped and read in any case, then checked on the allowlist
    args = dict(radius=8, tol=0.1, trials_per_probe=20, bracket=(0.3, 0.9))
    assert bisect_pc(" OTSP ", **args) == bisect_pc("otsp", **args)


def test_bisect_allowlist_and_bracketing():
    with pytest.raises(ValidationError):
        bisect_pc("NE-SW", radius=10)
    with pytest.raises(ValidationError):
        bisect_pc(lambda p: 1.0, radius=10)  # lower endpoint already above target


@pytest.mark.parametrize("target, tol, max_probes", [
    pytest.param(target, tol, 25, id=f"{target}-{tol}")
    for target, tol in ((math.nan, 0.005), (0.5, math.nan), (1.5, 0.005), (0.0, 0.005),
                        (1.0, 0.005), (0.5, 0.0), (0.5, -0.1), (0.5, math.inf))
] + [pytest.param(0.5, 0.005, m, id=f"max_probes {m}") for m in (1, 0, -5)])
def test_bisect_target_and_tol_are_validated_before_probing(target, tol, max_probes):
    calls = []
    with pytest.raises(ValidationError):
        bisect_pc(lambda p: calls.append(p) or 0.5, radius=10, target=target, tol=tol,
                  max_probes=max_probes)
    assert calls == []


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


@given(p=OPEN_P, radius=st.integers(1, 12), trials=st.integers(1, 5),
       seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_theta_minus_sweep_matches_up_or_right_oracle(p, radius, trials, seed):
    # theta_minus_curve keys N-E site (x, y) of trial t on (t, -(x + y), -y);
    # build each trial's window from that key and take its backward cluster by BFS
    window = Window.centered(radius, 2)
    xs, ys = np.meshgrid(np.arange(-radius, radius + 1), np.arange(-radius, radius + 1),
                         indexing="ij")
    up, right = parse_token("N"), parse_token("E")
    hits = []
    for t in range(trials):
        atom = float_atoms((p, 1.0 - p), seed, (t, -(xs + ys), -ys))
        env = EnvironmentGrid(window, np.where(atom == 0, up, right))
        hits.append(backward_cluster(env, (0, 0)).touches_boundary)
    measure = measure_for(ModelId("N-E", p))
    cols = -np.arange(radius + 1, dtype=np.int64)  # swept backward, on x = -i
    draw = (lambda live: live,
            lambda live, ys, lo, hi: _up_or_right_hash(seed, live, cols[lo:hi],
                                                       np.array(ys)[:, None, None]))
    swept = _oriented_reach_trials(measure, trials, draw, radius + 1, backward=True)
    assert swept.tolist() == hits
    assert theta_minus_curve(p, [radius], trials, seed)[0].estimate == np.mean(hits)


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


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, math.nan])
@pytest.mark.parametrize("law", [lu_walk_test, seoa_excursion_test, w_walk_drift_test])
def test_walk_laws_reject_p_outside_unit_interval(law, p):
    # a ValidationError, not numpy's error from a geometric draw at p
    with pytest.raises(ValidationError, match="strictly in"):
        law(p, 10)


@pytest.mark.parametrize("radius, trials", [(0, 20), (-3, 20), (5, 0)])
def test_radius_and_trials_are_validated(radius, trials):
    for run in (lambda: TrialPlan(ModelId("NE-.", 0.5), radius, trials, 0),
                lambda: otsp_reach_estimate(0.5, radius, trials),
                lambda: bisect_pc("NE-.", radius, trials_per_probe=trials),
                lambda: bisect_pc("otsp", radius, trials_per_probe=trials),
                lambda: theta_minus_curve(0.5, [5, radius], trials)):
        with pytest.raises(ValidationError):
            run()


@pytest.mark.parametrize("run", [
    lambda: wn_crossing_test(0.5, 3, 0),
    lambda: wn_crossing_test(0.5, 0, 5),
    lambda: dn_transition_test(0.5, 0),
    lambda: dn_transition_test(0.5, 10, k_max=0),
    lambda: m_size_stats(ModelId("NE-SW", 0.5), [3], 0),
    lambda: classify_shapes(ModelId("NE-SW", 0.5), 5, 0),
    lambda: martingale_test(0.5, 10, 20, n_levels=0),
    lambda: martingale_test(0.5, 10, 20, n_levels=-1),
    lambda: wn_crossing_test(0.5, 3, 5, start_gap=-3),
    lambda: wn_crossing_test(0.5, 3, 5, start_gap=0),
    lambda: wn_crossing_test(0.5, 3, 5, j_max=-1),
    lambda: lu_walk_test(0.5, 10, j_range=-1),
    lambda: theta_minus_curve(0.5, [], 10),
    lambda: m_size_stats(ModelId("NE-SW", 0.5), [], 3),
], ids=["wn no levels", "wn no trials", "dn no samples", "dn no widths", "m_size no trials",
        "census no trials", "martingale no levels", "martingale negative levels",
        "wn negative gap", "wn no gap", "wn negative j_max", "lu negative j_range",
        "theta_minus no radii", "m_size no radii"])
def test_empty_samples_are_rejected(run):
    with pytest.raises(ValidationError):
        run()


def test_site_draw_holds_one_batch_of_prefix(monkeypatch):
    # the row draw keeps the (trial, column) hash prefix of one SWEEP_BATCH only
    measure = measure_for(ModelId("NE-.", 0.75))
    largest = 0

    def recording(seed, parts, _hash=rng.hash_parts):
        nonlocal largest
        out = _hash(seed, parts)
        largest = max(largest, np.size(out))
        return out

    def sweep(batch):
        return _ne_sweep(measure, 65, 8, 4, False, True, batch)

    with monkeypatch.context() as m:
        m.setattr(rng, "hash_parts", recording)
        small = sweep(3)
    assert 0 < largest <= 3 * 66
    assert np.array_equal(small, sweep(256))


def test_zero_spread_z_is_zero_or_infinite():
    # a difference with no spread is exact: z is 0 when it is 0, infinite when not
    assert w_walk_drift_test(0.5, 2, master_seed=1).se == 0.0
    assert w_walk_drift_test(0.5, 2, master_seed=1).z == 0.0
    assert ExcursionReport(0.5, 2, 1.0, 0.0, 1.5).z == -math.inf
    lu = lu_walk_test(0.5, 2, master_seed=1)
    assert lu.se_du == 0.0 and lu.mean_du != lu.drift_du
    assert lu.max_abs_z == math.inf
    rec = EstimateRecord("NE-.", 0.5, 5, 10, REACH_C, 1.0, 0.0, 0, 0.0)
    assert IdentityReport(rec, rec, 1.0).z == 0.0
    assert IdentityReport(rec, rec, 0.5).z == math.inf


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


SITE = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@given(p=st.floats(0.05, 0.97), trials=st.integers(1, 12), levels=st.integers(1, 30),
       start_gap=st.integers(1, 12), j_max=st.integers(0, 8),
       seed=st.integers(-(2**63), 2**64 - 1), x=SITE, y=SITE)
@settings(max_examples=60, deadline=None)
def test_lazy_walks_match_scalar_reference(p, trials, levels, start_gap, j_max, seed, x, y):
    # both walks step all their trials together; each report must be the
    # one the per-trial, per-site loops give, dict order included
    crossings, counts, dw_sum = wn_crossing_oracle(p, trials, levels, start_gap, seed)
    total = sum(counts.values())
    cells = []
    for j in range(j_max + 1):
        freq, prob = counts.get(j, 0) / total, w_step_prob(j, p)
        cells.append({"j": j, "freq": freq, "prob": prob, "z": _z(freq, prob, total)})
    want = WnCrossingReport(p, trials, levels, start_gap, crossings / trials, tuple(cells),
                            dw_sum / total)
    assert repr(wn_crossing_test(p, trials, levels, start_gap, seed, j_max)) == repr(want)
    want = CoalescenceStats(*coalescence_oracle(p, x, y, trials, levels, seed))
    assert repr(coalescence_stats(p, x, y, trials, levels, seed)) == repr(want)


def test_m_size_stats_rejects_other_dimensions():
    # the communicating set is measured on a d=2 window only
    with pytest.raises(DimensionError):
        m_size_stats(ModelId("orthant", 0.5, 3), [3], 2)


def test_classify_shapes_rejects_other_dimensions():
    # the census classifies d=2 windows only, as run_plan and m_size_stats do
    with pytest.raises(DimensionError):
        classify_shapes(ModelId("orthant", 0.5, 3), 3, 2)


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
