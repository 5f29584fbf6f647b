import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dre import rng
from dre.directions import BIT_E, BIT_W, parse_token
from dre.env import Window, reverse_environment, sample_environment, sample_masks, subgrid
from dre.errors import ValidationError
from dre.measure import SupportMeasure
from dre.models import ModelId, measure_for

from conftest import MIXED_MEASURES, count_passed
from oracles import float_atoms, oracle_cluster_sets


def test_window_validation():
    with pytest.raises(ValidationError):
        Window((0, 0), (1, 1))  # side too short
    with pytest.raises(ValidationError):
        Window((1, -3), (5, 3))  # origin outside
    w = Window.centered(4)
    assert w.shape == (9, 9)
    assert w.contains((4, -4)) and not w.contains((5, 0))
    assert w.on_edge((4, 0)) and not w.on_edge((3, 0))


def test_deterministic_single_atom():
    d = 3
    plus_mask = (1 << d) - 1
    m = SupportMeasure(d, ((plus_mask, 1.0),))
    env = sample_environment(m, Window.centered(2, d), 9)
    assert (env.arrows == plus_mask).all()


def test_same_seed_same_grid():
    model = ModelId("NE-SW", 0.5)
    w = Window.box((0, 9), (0, 9))
    a = sample_environment(model, w, 42)
    b = sample_environment(model, w, 42)
    assert np.array_equal(a.arrows, b.arrows)
    c = sample_environment(model, w, 43)
    assert not np.array_equal(a.arrows, c.arrows)


def test_binomial_concentration():
    model = ModelId("NE-.", 0.75)
    w = Window.box((0, 99), (0, 99))
    env = sample_environment(model, w, 7)
    ne = parse_token("NE")
    frac = (env.arrows == ne).mean()
    se = math.sqrt(0.75 * 0.25 / w.site_count)
    assert abs(frac - 0.75) <= 3 * se


@given(seed=st.integers(min_value=0, max_value=2**32), radius=st.integers(2, 6))
@settings(max_examples=25, deadline=None)
def test_subwindow_consistency(seed, radius):
    model = ModelId("EW-NS", 0.4)
    big = sample_environment(model, Window.centered(radius + 3), seed)
    small = sample_environment(model, Window.centered(radius), seed)
    assert np.array_equal(small.arrows, subgrid(big, small.window).arrows)


@given(model=st.sampled_from(MIXED_MEASURES), seed=st.integers(0, 2**63 - 1),
       lo_x=st.integers(-40, -1), hi_x=st.integers(1, 40),
       lo_y=st.integers(-40, -1), hi_y=st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_sparse_coordinate_grids_match_dense(model, seed, lo_x, hi_x, lo_y, hi_y):
    window = Window.box((lo_x, hi_x), (lo_y, hi_y))
    measure = measure_for(model)
    axes = [np.arange(window.lo[i], window.hi[i] + 1, dtype=np.int64) for i in range(2)]
    dense = np.meshgrid(*axes, indexing="ij")
    sparse = np.meshgrid(*axes, indexing="ij", sparse=True)
    want = measure.masks[float_atoms(measure.probs, seed, dense)]
    assert np.array_equal(sample_masks(measure, window, seed), want)
    # the batched draw of the oriented sweeps: one seed per trial on a new axis
    seeds = rng.hash_parts(seed, (np.arange(3, dtype=np.int64),))[:, None, None]
    assert np.array_equal(count_passed(seeds, sparse, measure.thresholds),
                          count_passed(seeds, dense, measure.thresholds))


@pytest.mark.parametrize("measure, window", [
    # atoms {+e1, +e2}, {+e3, -e1}, {+e2, -e2, -e3}: the last axis is finished past d=2
    (SupportMeasure(3, ((0b000011, 0.4), (0b001100, 0.35), (0b110010, 0.25))),
     Window.box((-3, 4), (-2, 5), (-5, 2))),
    # 1024 equal atoms: the drawn masks pass 255
    (SupportMeasure(5, tuple((m, 1 / 1024) for m in range(1024))), Window.centered(2, 5)),
], ids=["d3 box", "d5 1024 atoms"])
def test_sample_masks_match_float_atoms_in_every_dimension(measure, window):
    axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(window.lo, window.hi)]
    dense = np.meshgrid(*axes, indexing="ij")
    for seed in (0, 7, 2**63 + 5):
        got = sample_masks(measure, window, seed)
        assert got.dtype == np.uint16 and got.shape == window.shape
        assert np.array_equal(got, measure.masks[float_atoms(measure.probs, seed, dense)])
    if measure.d == 5:
        assert got.max() > 255


def test_support_soundness():
    model = ModelId("SWE-N", 0.35)
    env = sample_environment(model, Window.centered(20), 3)
    assert set(np.unique(env.arrows)) <= set(measure_for(model).support())


def test_sampling_rejects_mismatched_dimension():
    m = SupportMeasure(3, (((1 << 3) - 1, 1.0),))
    with pytest.raises(ValidationError):
        sample_masks(m, Window.centered(3, 2), 0)


def test_reverse_single_arrow():
    w = Window.centered(2)
    arrows = np.zeros(w.shape, dtype=np.uint16)
    arrows[2, 2] = BIT_E  # origin points east
    env_arrows = arrows.copy()
    from dre.env import EnvironmentGrid

    env = EnvironmentGrid(window=w, arrows=env_arrows)
    rev = reverse_environment(env)
    assert rev.mask_at((1, 0)) == BIT_W
    assert rev.mask_at((0, 0)) == 0


def test_symmetric_atoms_self_reverse_on_interior():
    # deterministic all-horizontal arrows: the transpose graph looks the same
    m = SupportMeasure(2, ((BIT_E | BIT_W, 1.0),))
    env = sample_environment(m, Window.centered(3), 0)
    rev = reverse_environment(env)
    assert np.array_equal(rev.arrows[1:-1, :], env.arrows[1:-1, :])


def test_double_reversal_identity_on_interior():
    env = sample_environment(ModelId("NE-SW", 0.6), Window.centered(5), 77)
    twice = reverse_environment(reverse_environment(env))
    assert np.array_equal(twice.arrows[1:-1, 1:-1], env.arrows[1:-1, 1:-1])


def test_reversed_forward_search_is_backward_cluster():
    from dre.clusters import backward_cluster, forward_cluster

    for seed in range(10):
        env = sample_environment(ModelId("SWE-N", 0.5), Window.centered(3), seed)
        rev = reverse_environment(env)
        got = forward_cluster(rev, (0, 0)).sites
        _, bwd, _ = oracle_cluster_sets(env, (0, 0))
        assert got == bwd
        assert backward_cluster(env, (0, 0)).sites == bwd
