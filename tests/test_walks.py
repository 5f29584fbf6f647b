import math

import numpy as np
import pytest

from dre import walks
from dre.bitgrid import reach_batch
from dre.directions import BIT_E, BIT_N, BIT_S, BIT_W, parse_token
from dre.env import EnvironmentGrid, Window, sample_environment
from dre.errors import ModelAssumptionError, ValidationError
from dre.measure import SupportMeasure
from dre.models import ModelId, measure_for
from dre.walks import (
    EXIT_BOUNDARY,
    EXIT_STEP_LIMIT,
    OpenCycle,
    _construction,
    _follow,
    _trace_legs,
    build_open_cycle,
    coalescence_stats,
    cycle_encloses_box,
    cycle_is_open,
    detect_gigantic_m,
    quadrant_path,
    seoa_path,
    step_limit,
    swoa_path,
    winding_number,
)

def grid_env(window, fill, sites=None, measure=None):
    arrows = np.full(window.shape, fill, dtype=np.uint16)
    for site, mask in (sites or {}).items():
        arrows[window.index(site)] = mask
    return EnvironmentGrid(window=window, arrows=arrows, measure=measure)


def test_quadrant_path_up_right_model_is_forced():
    env = sample_environment(ModelId("N-E", 0.5), Window.centered(10), 3)
    trace = quadrant_path(env, (0, 0), "NE", seed=5)
    assert trace.exit_reason == EXIT_BOUNDARY
    assert trace.steps_open_in(env)
    # a second run with any seed is identical: no site offers a choice
    other = quadrant_path(env, (0, 0), "NE", seed=99)
    assert other.sites == trace.sites
    for a, b in zip(trace.sites, trace.sites[1:]):
        assert (b[0] - a[0], b[1] - a[1]) in ((1, 0), (0, 1))


def test_quadrant_path_orthant_se_deterministic():
    env = sample_environment(ModelId("NE-SW", 0.5), Window.centered(10), 8)
    trace = quadrant_path(env, (-2, 2), "SE", seed=1)
    assert trace.steps_open_in(env)
    for a, b in zip(trace.sites, trace.sites[1:]):
        step = (b[0] - a[0], b[1] - a[1])
        mask = env.mask_at(a)
        if mask == parse_token("NE"):
            assert step == (1, 0)
        else:
            assert step == (0, -1)


def test_quadrant_path_missing_arrow_raises():
    env = grid_env(Window.centered(3), fill=0, sites={(0, 0): BIT_N})
    with pytest.raises(ModelAssumptionError) as err:
        quadrant_path(env, (0, 0), "NE")
    # the path climbs one step and then finds no NE arrow at (0, 1)
    assert err.value.site == (0, 1)


def test_quadrant_tiebreak_is_seeded():
    env = grid_env(Window.centered(8), fill=parse_token("NE"))
    a = quadrant_path(env, (0, 0), "NE", seed=1)
    b = quadrant_path(env, (0, 0), "NE", seed=1)
    c = quadrant_path(env, (0, 0), "NE", seed=2)
    assert a.sites == b.sites
    assert a.sites != c.sites  # overwhelmingly likely over ~8 coin flips


def _boustrophedon(window):
    # east along even rows, west along odd rows, up at each row end: never revisits
    (x0, y0), (x1, _) = window.lo, window.hi

    def mover(site):
        x, y = site
        eastward = (y - y0) % 2 == 0
        if x == (x1 if eastward else x0):
            return (x, y + 1)
        return (x + 1 if eastward else x - 1, y)

    return mover


def test_path_and_leg_stop_at_the_step_limit():
    window = Window.centered(35)
    limit = step_limit(window)
    assert limit == 4544 < window.shape[0] * window.shape[1] - 1
    env = grid_env(window, fill=0)
    mover = _boustrophedon(window)
    trace = _follow(env, window.lo, mover)
    assert trace.exit_reason == EXIT_STEP_LIMIT
    assert len(trace.sites) == limit + 1
    assert len(set(trace.sites)) == limit + 1
    legs, anchors, exit_reason = _trace_legs(env, window.lo, [("B", lambda s: False)],
                                             {"B": mover})
    assert exit_reason == EXIT_STEP_LIMIT
    assert legs == list(trace.sites) and anchors == [0]


def test_seoa_descends_all_swe_column():
    swe = parse_token("SWE")
    env = grid_env(Window.centered(5), fill=swe,
                   measure=measure_for(ModelId("SWE-N", 0.5)))
    trace, excursions = seoa_path(env, (0, 3))
    assert trace.exit_reason == EXIT_BOUNDARY
    assert trace.sites == tuple((0, y) for y in range(3, -6, -1))
    assert excursions == []


def test_seoa_never_west_swoa_never_east():
    for seed in range(6):
        env = sample_environment(ModelId("SWE-N", 0.5), Window.centered(25), seed)
        trace, _ = seoa_path(env, (0, 0))
        assert all(b[0] - a[0] != -1 for a, b in zip(trace.sites, trace.sites[1:]))
        assert trace.steps_open_in(env)
        trace, _ = swoa_path(env, (0, 0))
        assert all(b[0] - a[0] != 1 for a, b in zip(trace.sites, trace.sites[1:]))
        assert trace.steps_open_in(env)


def test_seoa_requires_three_or_up_model():
    env = sample_environment(ModelId("NE-SW", 0.5), Window.centered(4), 0)
    with pytest.raises(ModelAssumptionError):
        seoa_path(env, (0, 0))


def _reflect_env(env):
    # x -> -x with east and west swapped
    arrows = env.arrows[::-1, :].copy()
    e = (arrows & np.uint16(BIT_E)).astype(bool)
    w = (arrows & np.uint16(BIT_W)).astype(bool)
    arrows &= np.uint16(~(BIT_E | BIT_W) & 0xF)
    arrows[e] |= np.uint16(BIT_W)
    arrows[w] |= np.uint16(BIT_E)
    return EnvironmentGrid(window=env.window, arrows=arrows, measure=env.measure)


def test_swoa_is_reflected_seoa():
    for seed in range(8):
        env = sample_environment(ModelId("SWE-N", 0.45), Window.centered(15), seed)
        mirrored = _reflect_env(env)
        a, exc_a = swoa_path(env, (3, 2))
        b, exc_b = seoa_path(mirrored, (-3, 2))
        assert [( -x, y) for (x, y) in a.sites] == list(b.sites)
        assert exc_a == exc_b


def test_seoa_excursions_match_law_on_windows():
    # excursions collected along sampled paths against the closed form
    from dre.bounds import drift_formulas

    p = 0.5
    excursions = []
    for seed in range(60):
        env = sample_environment(ModelId("SWE-N", p), Window.centered(60), seed)
        _, exc = seoa_path(env, (0, 0))
        excursions.extend(exc)
    n = len(excursions)
    assert n > 500
    mean = float(np.mean(excursions))
    se = float(np.std(excursions, ddof=1) / math.sqrt(n))
    assert abs(mean - drift_formulas("SWE-N", p)["seoa_mean_excursion"]) <= 4 * se


def test_coalescence_same_start():
    stats = coalescence_stats(0.5, (0, 0), (0, 0), trials=10, max_levels=10)
    assert stats.met == 10 and stats.meeting_levels == {0: 10}


@pytest.mark.parametrize("kwargs", [
    dict(trials=-3), dict(trials=0), dict(max_levels=-1), dict(max_levels=0),
    dict(x=(0, 0, 0)), dict(y=(1,)), dict(x=(0.5, 0)),
], ids=["negative trials", "no trials", "negative levels", "no levels", "3-D start",
        "1-D start", "float start"])
def test_coalescence_rejects_bad_runs_and_starts(kwargs):
    args = dict(p=0.5, x=(0, 0), y=(2, -2), trials=5, max_levels=10) | kwargs
    with pytest.raises(ValidationError):
        coalescence_stats(**args)


def test_coalescence_difference_law_and_meeting():
    # symmetric-walk hitting: survival from gap 2 after ~n/2 active moves
    # decays like sqrt(8/(pi n)), so 900 levels push meeting past 0.9
    p = 0.5
    stats = coalescence_stats(p, (1, -1), (-1, 1), trials=400, max_levels=900,
                              master_seed=4)
    assert stats.meet_fraction >= 0.9
    expected = p * (1 - p)
    n = stats.diff_steps
    for delta in (-1, 1):
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(stats.diff_step_freq[delta] - expected) <= 4 * se


def test_winding_number_squares():
    ccw = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1),
           (1, -1), (1, 0)]
    assert winding_number(ccw, (0.0, 0.0)) == 1
    assert winding_number(list(reversed(ccw)), (0.0, 0.0)) == -1
    assert winding_number(ccw, (5.0, 5.0)) == 0


def test_cycle_encloses_box():
    ring = [(2, 0), (2, 2), (0, 2), (-2, 2), (-2, 0), (-2, -2), (0, -2),
            (2, -2), (2, 0)]
    assert cycle_encloses_box(ring, 1) == 1
    assert cycle_encloses_box(ring, 2) is None  # touches the box corner ring


def test_open_cycle_requires_closure():
    with pytest.raises(ValidationError):
        OpenCycle(sites=((0, 0), (1, 0)), box_radius=1, winding=1, strategy="x")


def test_build_cycle_on_bidirectional_grid():
    # every site passable in every direction: the ring legs close immediately
    m = SupportMeasure(2, ((parse_token("NSEW"), 1.0),))
    env = sample_environment(m, Window.centered(12), 0)
    cyc = build_open_cycle(env, 2)
    assert cyc is not None
    assert cycle_is_open(env, cyc.sites)
    assert abs(cyc.winding) == 1


def test_spiral_closes_by_revisiting_its_trace(monkeypatch):
    # a counter-clockwise ring on |x|, |y| = 3: E along the bottom, N up the
    # right, W along the top, S down the left; the fourth leg steps back onto
    # the start, so the loop comes from the trace and the splice never runs
    ring = {}
    for t in range(-3, 3):
        ring[(t, -3)], ring[(3, t)], ring[(-t, 3)], ring[(-3, -t)] = BIT_E, BIT_N, BIT_W, BIT_S
    env = grid_env(Window.centered(5), 0, ring, SupportMeasure(2, ((parse_token("NSEW"), 1.0),)))

    def no_splice(*args):
        raise AssertionError("the splice ran")

    monkeypatch.setattr("dre.walks._splice_cycle", no_splice)
    cyc = build_open_cycle(env, 1)
    assert cyc is not None and cyc.strategy == "spiral_lrud" and cyc.winding == 1
    assert len(cyc.sites) - 1 == 24 and set(cyc.sites) == set(ring)
    assert cycle_is_open(env, cyc.sites)


def test_no_cycle_on_horizontal_only_grid():
    m = SupportMeasure(2, ((parse_token("EW"), 1.0),))
    env = sample_environment(m, Window.centered(10), 0)
    assert build_open_cycle(env, 2) is None


def test_cycle_strategy_model_pairing():
    # the model picks the construction; a model no construction fits raises
    for name, strategy in (("NE-SW", "orthant"), ("SWE-N", "spiral_swe_n"),
                           ("EW-NS", "spiral_lrud"), ("NSEW-EW", "spiral_lrud")):
        assert _construction(measure_for(ModelId(name, 0.5))) == strategy
    for name in ("NE-.", "N-E", "NE-W"):
        env = sample_environment(ModelId(name, 0.5), Window.centered(12), 0)
        with pytest.raises(ValidationError):
            build_open_cycle(env, 2)
    env2 = sample_environment(ModelId("EW-NS", 0.5), Window.centered(12), 0)
    with pytest.raises(ValidationError):
        build_open_cycle(env2, 11)  # window too small for pad


def test_orthant_cycle_found_and_verified():
    found = 0
    for seed in range(12):
        env = sample_environment(ModelId("NE-SW", 0.5), Window.centered(90), seed)
        cyc = build_open_cycle(env, 3)
        if cyc is not None:
            found += 1
            assert cycle_is_open(env, cyc.sites)
            assert cycle_encloses_box(cyc.sites, 3) is not None
    assert found >= 4


def test_swe_n_cycle_in_drift_regime():
    found = 0
    for seed in range(6):
        env = sample_environment(ModelId("SWE-N", 0.7), Window.centered(80), seed)
        cyc = build_open_cycle(env, 3)
        if cyc is not None:
            found += 1
            assert cycle_is_open(env, cyc.sites)
    assert found >= 4


def test_detect_gigantic_checks_pass():
    env = sample_environment(ModelId("EW-NS", 0.5), Window.centered(35), 1)
    report = detect_gigantic_m(env, 4, seed=1)
    assert report.found and report.checks_passed
    assert set(report.checks) == {
        "cycle_sites_mutually_communicate",
        "forward_clusters_cover_cycle",
        "backward_clusters_cover_cycle",
    }


def test_detect_gigantic_samples(monkeypatch):
    env = sample_environment(ModelId("EW-NS", 0.5), Window.centered(35), 1)
    with pytest.raises(ValidationError):
        detect_gigantic_m(env, 4, samples=-1, seed=1)
    # no sample: every check holds vacuously, and no start is reached
    batches = []

    def counting(moves, ix, iy, *args):
        batches.append(np.size(ix))
        return reach_batch(moves, ix, iy, *args)

    monkeypatch.setattr(walks, "reach_batch", counting)
    report = detect_gigantic_m(env, 4, samples=0, seed=1)
    assert report.found and report.checks_passed and len(report.checks) == 3
    assert not any(batches)


def test_detect_gigantic_requires_infinite_forward():
    env = sample_environment(ModelId("NSEW-.", 0.7), Window.centered(20), 1)
    with pytest.raises(ValidationError):
        detect_gigantic_m(env, 3)


def test_trace_and_cycle_dumps():
    from dre.walks import cycle_dump_lines, trace_dump_lines

    env = sample_environment(ModelId("N-E", 0.5), Window.centered(5), 3)
    trace = quadrant_path(env, (0, 0), "NE")
    lines = trace_dump_lines(trace)
    assert lines[0].startswith("step 0 0 0 ")
    assert lines[0].split()[-1] in ("N", "E")
    assert lines[-1].startswith("exit ") and lines[-1].endswith("HitBoundary")

    m = SupportMeasure(2, ((parse_token("NSEW"), 1.0),))
    grid = sample_environment(m, Window.centered(10), 0)
    cyc = build_open_cycle(grid, 2)
    clines = cycle_dump_lines(cyc)
    assert clines[-1].startswith(f"cycle {len(cyc.sites) - 1} winding ")
    assert clines[-1].endswith("box -2:2")


def test_detect_gigantic_never_on_horizontal_line_model():
    # rotated three-arrow model: communicating sets are horizontal lines
    for seed in range(10):
        env = sample_environment(ModelId("SWE-EW", 0.5), Window.centered(25), seed)
        report = detect_gigantic_m(env, 3, seed=seed)
        assert not report.found
