from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dre import bitgrid
from dre.bitgrid import _step, edge_mask, move_masks, reach_batch, reversed_moves
from dre.clusters import (
    BACKWARD,
    BLOCKED_ABOVE,
    BLOCKED_BELOW,
    FINITE,
    FORWARD,
    FULL_WINDOW,
    INDETERMINATE,
    BlockingFunction,
    BShapeReport,
    _bfs_run,
    _bfs_table,
    backward_cluster,
    bfs_parents,
    classify_b_shape,
    communicating_cluster,
    dn_trajectory,
    forward_cluster,
    interval_chain,
    verify_blocking_function,
)
from dre.directions import BIT_E, BIT_N, BIT_S, BIT_W, parse_token
from dre.env import EnvironmentGrid, Window, reverse_environment, sample_environment, subgrid
from dre.errors import DimensionError, ValidationError
from dre.measure import SupportMeasure
from dre.models import ModelId

from conftest import MIXED_MEASURES
from oracles import (census_columns, oracle_bfs_pairs, oracle_cluster_sets, oracle_touches,
                     oracle_verify_blocking)


def grid_env(window, fill=0, sites=None, measure=None):
    arrows = np.full(window.shape, fill, dtype=np.uint16)
    for site, mask in (sites or {}).items():
        arrows[window.index(site)] = mask
    return EnvironmentGrid(window=window, arrows=arrows, measure=measure)


def test_forward_all_up_column():
    env = grid_env(Window.centered(3), fill=BIT_N)
    res = forward_cluster(env, (0, -3))
    assert res.sites == {(0, y) for y in range(-3, 4)}
    assert res.touches_boundary


def test_forward_two_site_chain():
    env = grid_env(Window.centered(4), fill=0, sites={(0, 0): BIT_E})
    res = forward_cluster(env, (0, 0))
    assert res.sites == {(0, 0), (1, 0)}
    assert not res.touches_boundary


def test_backward_all_up_column():
    env = grid_env(Window.centered(3), fill=BIT_N)
    res = backward_cluster(env, (0, 3))
    assert res.sites == {(0, y) for y in range(-3, 4)}
    assert res.touches_boundary


def test_origin_outside_window():
    env = grid_env(Window.centered(2))
    with pytest.raises(ValidationError):
        forward_cluster(env, (5, 0))


def test_oracle_equivalence_sample():
    for i, model in enumerate(MIXED_MEASURES):
        env = sample_environment(model, Window.centered(3), 1000 + i)
        fwd, bwd, comm = oracle_cluster_sets(env, (0, 0))
        f = forward_cluster(env, (0, 0))
        b = backward_cluster(env, (0, 0))
        m = communicating_cluster(env, (0, 0))
        assert f.sites == fwd and b.sites == bwd and m.sites == comm
        assert f.touches_boundary == oracle_touches(env, fwd)
        assert b.touches_boundary == oracle_touches(env, bwd)
        assert m.touches_boundary == oracle_touches(env, comm)
        assert forward_cluster(reverse_environment(env), (0, 0)).sites == bwd


@pytest.mark.parametrize("kind", [FORWARD, BACKWARD])
def test_bfs_parents_is_an_open_tree(kind):
    bits = {(1, 0): BIT_E, (0, 1): BIT_N, (-1, 0): BIT_W, (0, -1): BIT_S}
    cluster = forward_cluster if kind == FORWARD else backward_cluster
    for i, model in enumerate(MIXED_MEASURES):
        env = sample_environment(model, Window.centered(6), 2000 + i)
        table = _bfs_table(env, kind, 1)
        for x in ((0, 0), (2, 0)):  # inside and beside the box [-1, 1]^2
            parents = dict(bfs_parents(env, x, kind))
            assert set(parents) == cluster(env, x).sites and parents[x] is None
            avoiding = dict(_bfs_run(table, x))
            assert set(avoiding) <= set(parents)
            assert all(s == x or max(map(abs, s)) > 1 for s in avoiding)
            for tree in (parents, avoiding):
                for z, q in tree.items():
                    if q is not None:
                        src, dst = (q, z) if kind == FORWARD else (z, q)
                        assert env.mask_at(src) & bits[(dst[0] - src[0], dst[1] - src[1])]


@pytest.mark.parametrize("kind", [FORWARD, BACKWARD])
def test_bfs_stopped_early_gives_a_prefix(kind):
    # a caller that breaks out after k pairs has seen the first k of the full run
    for i, model in enumerate(MIXED_MEASURES):
        env = sample_environment(model, Window.centered(6), 3000 + i)
        for box in (None, 1):
            table = _bfs_table(env, kind, box)
            full = list(_bfs_run(table, (3, -2)))
            for k in sorted({1, 2, max(1, len(full) // 2), len(full)}):
                head = []
                for pair in _bfs_run(table, (3, -2)):
                    head.append(pair)
                    if len(head) == k:
                        break
                assert head == full[:k]


@given(d=st.sampled_from([2, 3]), forward=st.booleans(), box=st.integers(0, 6),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_box_table_matches_predicate_bfs(d, forward, box, data):
    # box sites that start seen give the pairs, in order, of a search that
    # skips them by predicate; boxes may cross or pass the window's edge
    sides = [data.draw(st.integers(3, 7 if d == 2 else 4)) for _ in range(d)]
    lo = [-data.draw(st.integers(0, n - 1)) for n in sides]
    window = Window(tuple(lo), tuple(a + n - 1 for a, n in zip(lo, sides)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    bits = np.random.default_rng(seed).random(window.shape + (2 * d,)) < 0.6
    arrows = (bits * (1 << np.arange(2 * d))).sum(axis=-1)
    env = EnvironmentGrid(window=window, arrows=arrows.astype(np.uint16))
    if data.draw(st.booleans()):  # an origin in the box, clipped to the window
        x = tuple(data.draw(st.integers(max(a, -box), min(b, box)))
                  for a, b in zip(window.lo, window.hi))
    else:
        x = tuple(data.draw(st.integers(a, b)) for a, b in zip(window.lo, window.hi))
    kind = FORWARD if forward else BACKWARD
    expected = oracle_bfs_pairs(env, x, forward, lambda s: max(map(abs, s)) <= box)
    assert list(_bfs_run(_bfs_table(env, kind, box), x)) == expected
    assert list(bfs_parents(env, x, kind)) == oracle_bfs_pairs(env, x, forward)


@given(d=st.sampled_from([3, 4]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_clusters_match_oracle_beyond_d2(d, data):
    sides = [data.draw(st.integers(3, 5 if d == 3 else 3)) for _ in range(d)]
    lo = [-data.draw(st.integers(0, n - 1)) for n in sides]
    window = Window(tuple(lo), tuple(a + n - 1 for a, n in zip(lo, sides)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    density = data.draw(st.floats(0.1, 0.6))
    bits = np.random.default_rng(seed).random(window.shape + (2 * d,)) < density
    arrows = (bits * (1 << np.arange(2 * d))).sum(axis=-1)
    env = EnvironmentGrid(window=window, arrows=arrows.astype(np.uint16))
    x = tuple(data.draw(st.integers(a, b)) for a, b in zip(window.lo, window.hi))
    fwd, bwd, comm = oracle_cluster_sets(env, x)
    for res, ref in ((forward_cluster(env, x), fwd), (backward_cluster(env, x), bwd),
                     (communicating_cluster(env, x), comm)):
        assert res.sites == ref
        assert res.touches_boundary == oracle_touches(env, ref)


def test_orthant_d3_clusters_match_oracle():
    env = sample_environment(ModelId("orthant", 0.4, 3), Window.centered(3, 3), 7)
    for x in ((0, 0, 0), (2, -1, 3), (-3, 3, -2)):
        fwd, bwd, _ = oracle_cluster_sets(env, x)
        assert forward_cluster(env, x).sites == fwd and len(fwd) > 1
        assert backward_cluster(env, x).sites == bwd


def test_communicating_symmetry_and_membership():
    env = sample_environment(ModelId("EW-NS", 0.5), Window.centered(3), 5)
    sites, closure = None, None
    for x in [(0, 0), (1, -1), (-2, 2)]:
        m = communicating_cluster(env, x)
        assert x in m.sites
        for y in m.sites:
            assert x in communicating_cluster(env, y).sites


def test_bidirectional_row_is_communicating():
    env = grid_env(Window.centered(3), fill=0,
                   sites={(x, 0): BIT_E | BIT_W for x in range(-3, 4)})
    m = communicating_cluster(env, (0, 0))
    assert m.sites == {(x, 0) for x in range(-3, 4)}


def test_ne_nw_communicating_confined_to_row():
    # no downward arrows at all, so mutual reachability stays on one line
    env = sample_environment(ModelId("NE-NW", 0.5), Window.centered(6), 11)
    for x in [(0, 0), (2, -1)]:
        m = communicating_cluster(env, x)
        assert all(s[1] == x[1] for s in m.sites)


def test_verify_blocking_all_up():
    env = grid_env(Window.centered(3), fill=BIT_N)
    w = BlockingFunction.from_values("upper", (-3, 3), [0] * 7)
    ok, violation = verify_blocking_function(env, w)
    assert ok and violation is None


def test_verify_blocking_single_down_violation():
    env = grid_env(Window.centered(3), fill=BIT_N, sites={(1, 1): BIT_S})
    w = BlockingFunction.from_values("upper", (-3, 3), [0] * 7)
    ok, violation = verify_blocking_function(env, w)
    assert not ok
    assert violation == ((1, 1), (1, 0))


def test_verify_blocking_lower_side():
    env = grid_env(Window.centered(3), fill=BIT_N)
    w = BlockingFunction.from_values("lower", (-3, 3), [0] * 7)
    ok, violation = verify_blocking_function(env, w)
    # every upward arrow below w crosses into w_>=
    assert not ok


@given(model=st.sampled_from([ModelId("NE-SW", 0.9), ModelId("SWE-N", 0.5),
                               ModelId("EW-NS", 0.5), ModelId("NSEW-.", 0.6)]),
       side=st.sampled_from(["upper", "lower"]), seed=st.integers(0, 2**32),
       lo_x=st.integers(-12, -1), hi_x=st.integers(1, 12), lo_y=st.integers(-12, -1),
       hi_y=st.integers(1, 12), monotone=st.booleans(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_verify_blocking_matches_scan_oracle(model, side, seed, lo_x, hi_x, lo_y, hi_y,
                                             monotone, data):
    env = sample_environment(model, Window.box((lo_x, hi_x), (lo_y, hi_y)), seed)
    values = data.draw(st.lists(st.integers(lo_y - 2, hi_y + 2), min_size=hi_x - lo_x + 1,
                                max_size=hi_x - lo_x + 1), label="values")
    if monotone:
        values.sort(reverse=side == "upper")
    w = BlockingFunction.from_values(side, (lo_x, hi_x), values)
    assert verify_blocking_function(env, w) == oracle_verify_blocking(env, w)


def test_verify_blocking_matches_scan_oracle_on_census_functions():
    checked = 0
    for p, seed in product((0.9, 0.95), range(6)):
        env = sample_environment(ModelId("NE-SW", p), Window.centered(30), seed)
        rep = classify_b_shape(env, (0, 0), inner=Window.centered(15))
        if rep.blocking is None:
            continue
        inner_env = subgrid(env, rep.window)
        got = verify_blocking_function(inner_env, rep.blocking)
        assert got == oracle_verify_blocking(inner_env, rep.blocking) == (True, None)
        # lowering one column below the cluster exposes a crossing edge
        values = list(rep.blocking.values)
        values[5] -= 3
        w = BlockingFunction.from_values(rep.blocking.side, rep.blocking.columns, values)
        assert verify_blocking_function(inner_env, w) == oracle_verify_blocking(inner_env, w)
        checked += 1
    assert checked >= 6


def test_classify_rejects_other_dimensions():
    m = SupportMeasure(3, (((1 << 3) - 1, 1.0),))
    env = sample_environment(m, Window.centered(2, 3), 0)
    with pytest.raises(DimensionError):
        classify_b_shape(env, (0, 0, 0))


def test_classify_finite():
    env = grid_env(Window.centered(4), fill=0)
    rep = classify_b_shape(env, (0, 0))
    assert rep.shape == FINITE and rep.cluster_size == 1


def test_classify_full_window():
    env = grid_env(Window.centered(3), fill=parse_token("NSEW"))
    rep = classify_b_shape(env, (0, 0))
    assert rep.shape == FULL_WINDOW


def test_classify_indeterminate_blob():
    # complement is a bounded blob: closed sites that cannot reach the origin
    window = Window.centered(4)
    sites = {(1, 1): 0, (1, 2): 0, (2, 1): 0}
    env = grid_env(window, fill=parse_token("NSEW"), sites=sites)
    rep = classify_b_shape(env, (0, 0))
    assert rep.shape == INDETERMINATE
    intervals = {n: (lo, hi, c) for (n, lo, hi, c) in rep.complement_intervals}
    assert intervals[1] == (1, 2, True)
    assert intervals[2] == (1, 1, True)


def test_classify_blocked_above_orthant():
    env = sample_environment(ModelId("NE-SW", 0.9), Window.centered(30), 2)
    rep = classify_b_shape(env, (0, 0))
    assert rep.shape == BLOCKED_ABOVE
    assert rep.blocking.side == "upper"
    assert rep.blocking.monotone_decreasing
    ok, _ = verify_blocking_function(env, rep.blocking)
    assert ok


def test_classify_blocked_below_orthant_low_p():
    shapes = set()
    for seed in range(12):
        env = sample_environment(ModelId("NE-SW", 0.1), Window.centered(30), seed)
        rep = classify_b_shape(env, (0, 0))
        shapes.add(rep.shape)
        if rep.shape == BLOCKED_BELOW:
            assert rep.blocking.side == "lower"
    assert BLOCKED_BELOW in shapes


def test_swe_up_never_blocked_below():
    # no-downward-crossing structure: cases are finite, full, or blocked above
    for p in (0.3, 0.5, 0.7):
        for seed in range(10):
            env = sample_environment(ModelId("SWE-N", p), Window.centered(20), seed)
            rep = classify_b_shape(env, (0, 0))
            assert rep.shape != BLOCKED_BELOW


def _check_census(env, origin, inner):
    rep = classify_b_shape(env, origin, inner=inner)
    box = inner or env.window
    intervals, upper, lower = census_columns(backward_cluster(env, origin).sites,
                                             box.lo, box.hi)
    assert rep.complement_intervals == intervals
    assert all(type(v) in (int, bool, type(None))
               for iv in rep.complement_intervals for v in iv)
    if rep.blocking is not None:
        ref = upper if rep.blocking.side == "upper" else lower
        assert rep.blocking.values == ref
    return rep


@pytest.mark.parametrize("name", ["NE-SW", "SWE-N"])
def test_census_columns_match_oracle(name):
    sides = set()
    for p in (0.3, 0.5, 0.7, 0.9):
        for seed in range(8):
            env = sample_environment(ModelId(name, p), Window.centered(14), seed)
            for inner in (None, Window.centered(7), Window.box((-3, 12), (-9, 2))):
                rep = _check_census(env, (0, 0), inner)
                if rep.blocking is not None:
                    sides.add(rep.blocking.side)
    assert "upper" in sides


@pytest.mark.parametrize("flip", [False, True])
def test_census_columns_hand_made(flip):
    # columns -2 and 2 lie fully outside the cluster, 0 and 1 fully inside;
    # column -1 misses y = 1 and y = 3, a complement split in two
    window = Window.box((-2, 2), (-3, 3))
    sites = {(0, y): BIT_N if y < 0 else BIT_S for y in range(-3, 4) if y}
    sites.update({(1, y): BIT_W for y in range(-3, 4)})
    sites.update({(-1, y): BIT_E for y in (-3, -2, -1, 0, 2)})
    if flip:  # mirror top and bottom: the complement now reaches the bottom
        swap = {BIT_N: BIT_S, BIT_S: BIT_N}
        sites = {(x, -y): swap.get(m, m) for (x, y), m in sites.items()}
    rep = _check_census(grid_env(window, sites=sites), (0, 0), None)
    split = (-1, -3, -1, False) if flip else (-1, 1, 3, False)
    assert rep.complement_intervals == ((-2, -3, 3, True), split, (0, None, None, True),
                                        (1, None, None, True), (2, -3, 3, True))
    assert rep.shape == (BLOCKED_BELOW if flip else BLOCKED_ABOVE)
    assert rep.blocking.values == ((4, -2, -3, -3, 4) if flip else (-4, 2, 3, 3, -4))


def _bfs_report(env, origin, inner):
    """The B-shape report of origin on inner, from the BFS backward cluster."""
    sites = {s for s in backward_cluster(env, origin).sites if inner.contains(s)}
    intervals, upper, lower = census_columns(sites, inner.lo, inner.hi)
    (x0, y0), (x1, y1) = inner.lo, inner.hi
    touched = any(inner.on_edge(s) for s in sites)
    blocking, shape = None, INDETERMINATE
    if not touched:
        shape = FINITE
    elif all((x, y) in sites for x in range(x0 + 1, x1) for y in range(y0 + 1, y1)):
        shape = FULL_WINDOW
    else:
        nonempty = [iv for iv in intervals if iv[1] is not None]
        for kind, side, values, end, y in ((BLOCKED_ABOVE, "upper", upper, 2, y1),
                                           (BLOCKED_BELOW, "lower", lower, 1, y0)):
            if all(iv[end] == y for iv in nonempty):
                w = BlockingFunction.from_values(side, (x0, x1), list(values))
                if oracle_verify_blocking(subgrid(env, inner), w)[0]:
                    blocking, shape = w, kind
                    break
    return BShapeReport(shape, origin, blocking, intervals, touched, len(sites), inner)


def test_census_stop_on_the_inner_window_is_exact(monkeypatch):
    # NE-SW at p=0.5, R=30, margin 30: most backward sets fill the inner
    # window long before the sampled one, and the reach stops there
    inner = Window.centered(30)
    shapes = []
    for seed in range(8):
        env = sample_environment(ModelId("NE-SW", 0.5), Window.centered(60), seed)
        rep = classify_b_shape(env, (0, 0), inner=inner)
        assert rep == _bfs_report(env, (0, 0), inner)
        shapes.append(rep.shape)
    assert FULL_WINDOW in shapes and FINITE in shapes
    env = sample_environment(ModelId("NE-SW", 0.5), Window.centered(60),
                             shapes.index(FULL_WINDOW))
    steps = [0]

    def counted(plan):
        steps[0] += 1
        _step(plan)

    monkeypatch.setattr(bitgrid, "_step", counted)
    classify_b_shape(env, (0, 0), inner=inner)
    stopped, steps[0] = steps[0], 0
    reach_batch(reversed_moves(move_masks(env.arrows)[:, None]), 60, 60, edge_mask(121, 121))
    assert 0 < stopped < steps[0]


def test_classify_inner_window_validation():
    env = sample_environment(ModelId("NE-SW", 0.5), Window.centered(5), 1)
    with pytest.raises(ValidationError):
        classify_b_shape(env, (0, 0), inner=Window.centered(9))


def test_interval_chain_matches_backward_slices_ew_n():
    for seed in range(25):
        env = sample_environment(ModelId("EW-N", 0.55), Window.centered(8), seed)
        chain = interval_chain(env, (0, 0))
        bwd = backward_cluster(env, (0, 0)).sites
        prev = None
        for (n, lo, hi) in chain.rows:
            slice_cols = sorted(s[0] for s in bwd if s[1] == -n)
            if lo is None:
                assert slice_cols == []
            else:
                assert slice_cols == list(range(lo, hi + 1))
                if prev is not None:
                    # surviving rows only widen
                    assert lo <= prev[0] and hi >= prev[1]
                prev = (lo, hi)


def test_interval_chain_matches_backward_slices_ne_w():
    for seed in range(25):
        env = sample_environment(ModelId("NE-W", 0.5), Window.centered(8), seed)
        chain = interval_chain(env, (0, 0))
        bwd = backward_cluster(env, (0, 0)).sites
        for (n, lo, hi) in chain.rows:
            slice_cols = sorted(s[0] for s in bwd if s[1] == -n)
            if lo is None:
                assert slice_cols == []
            else:
                assert slice_cols == list(range(lo, hi + 1))


@given(name=st.sampled_from(["EW-N", "NE-W"]), p=st.floats(0.05, 0.95),
       seed=st.integers(0, 2**20), data=st.data())
@settings(max_examples=200, deadline=None)
def test_interval_chain_matches_backward_slices(name, p, seed, data):
    ranges = []
    for reach in (12, 9):
        a = data.draw(st.integers(-reach, 0))
        ranges.append((a, data.draw(st.integers(max(0, a + 2), a + 2 * reach))))
    window = Window.box(*ranges)
    origin = tuple(data.draw(st.integers(a, b)) for a, b in ranges)
    env = sample_environment(ModelId(name, p), window, seed)
    chain = interval_chain(env, origin)
    bwd = backward_cluster(env, origin).sites
    prev = None
    for n, lo, hi in chain.rows:
        slice_cols = sorted(s[0] for s in bwd if s[1] == origin[1] - n)
        if lo is None:
            assert slice_cols == []
        else:
            assert slice_cols == list(range(lo, hi + 1))
            if name == "EW-N" and prev is not None:
                # surviving rows only widen
                assert lo <= prev[0] and hi >= prev[1]
            prev = (lo, hi)
    # the chain stops at the first slice that meets a side column
    assert all(window.lo[0] < lo and hi < window.hi[0] for _, lo, hi in chain.rows[:-1])
    n, lo, hi = chain.rows[-1]
    assert chain.truncated == (lo is not None)
    if chain.truncated:
        # the last slice meets a side column or sits on the bottom row
        assert lo == window.lo[0] or hi == window.hi[0] or origin[1] - n == window.lo[1]


def test_interval_chain_rejects_other_models():
    env = sample_environment(ModelId("NE-SW", 0.5), Window.centered(4), 0)
    with pytest.raises(ValidationError):
        interval_chain(env, (0, 0))


def test_dn_trajectory_terminates_with_zero():
    # find a chain that dies inside the window
    for seed in range(100):
        env = sample_environment(ModelId("EW-N", 0.5), Window.centered(12), seed)
        chain = interval_chain(env, (0, 0))
        if chain.rows[-1][1] is None:
            dn = dn_trajectory(chain)
            assert dn[-1] == 0
            assert all(v >= 1 for v in dn[:-1])
            # origin row width is one plus the adjacent horizontal runs
            assert dn[0] >= 1
            return
    pytest.fail("no extinct chain found")


def test_dn_trajectory_wrong_model():
    env = sample_environment(ModelId("NE-W", 0.5), Window.centered(6), 3)
    chain = interval_chain(env, (0, 0))
    with pytest.raises(ValidationError):
        dn_trajectory(chain)


def test_report_record_lines():
    env = sample_environment(ModelId("NE-SW", 0.9), Window.centered(20), 4)
    rep = classify_b_shape(env, (0, 0))
    lines = rep.record_lines()
    assert lines[0] == f"shape={rep.shape}"
    if rep.blocking is not None:
        assert any(line.startswith("w[0]=") for line in lines)
