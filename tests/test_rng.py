import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dre import rng
from dre.measure import SupportMeasure

from oracles import float_atoms

GRID = (np.arange(-8, 9, dtype=np.int64)[:, None], np.arange(-8, 9, dtype=np.int64)[None, :])
SITES = 17 * 17
THREE_ATOMS = rng.thresholds((0.25, 0.25, 0.5))


def test_atoms_range_and_determinism():
    a = rng.atoms(42, (np.arange(1000), np.arange(1000)), THREE_ATOMS)
    assert a.min() >= 0 and a.max() <= len(THREE_ATOMS)
    b = rng.atoms(42, (np.arange(1000), np.arange(1000)), THREE_ATOMS)
    assert np.array_equal(a, b)


def test_seed_changes_stream():
    x = np.arange(200)
    assert not np.array_equal(rng.atoms(1, (x,), THREE_ATOMS), rng.atoms(2, (x,), THREE_ATOMS))


@given(
    seed=st.integers(min_value=-(2**63), max_value=2**64 - 1),
    parts=st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=4),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
    shift=st.sampled_from([None, 0, 1]),
)
@settings(max_examples=80, deadline=None)
def test_scalar_matches_vector(seed, parts, cuts, shift):
    arrays = [np.array(p, dtype=np.int64) for p in parts]
    thresholds = [math.ceil(c * 2.0**53) for c in cuts]
    if shift is not None:  # a threshold on, or one above, this draw's top 53 bits
        thresholds.append((int(rng.hash_parts(seed, arrays)) >> 11) + shift)
    thresholds.sort()
    assert rng.atom_one(thresholds, seed, *parts) == int(rng.atoms(seed, arrays, thresholds))


@pytest.mark.parametrize("signs", [(1, 1), (-1, -1), (-1, 1)],
                         ids=["forward NE", "backward NE", "otsp"])
def test_row_draw_equals_full_grid_row(signs):
    # the lazy oriented sweep hashes one row at a time, for the live trials only
    sx, sy = signs
    seeds = rng.hash_parts(11, (np.arange(5, dtype=np.int64),))
    cols = sx * np.arange(70, dtype=np.int64)
    rows = sy * np.arange(70, dtype=np.int64)
    grid = rng.atoms(seeds[:, None, None], (cols[:, None], rows[None, :]), THREE_ATOMS)
    for k in (0, 1, 63, 64, 69):
        row = rng.atoms(seeds[:, None], (cols, sy * k), THREE_ATOMS)
        assert np.array_equal(row, grid[:, :, k])
        assert np.array_equal(rng.atoms(seeds[[3, 1], None], (cols, sy * k), THREE_ATOMS),
                              grid[[3, 1], :, k])


def test_spawn_seed_injective_sample():
    seen = {rng.spawn_seed(7, i, j) for i in range(40) for j in range(40)}
    assert len(seen) == 1600


def test_rough_uniformity():
    eighths = rng.atoms(3, (np.arange(200000),), rng.thresholds([0.125] * 8))
    assert abs(((eighths + 0.5) / 8).mean() - 0.5) < 0.005
    assert abs((eighths < 2).mean() - 0.25) < 0.01


def _hashed_cut(seed, j):
    """A cut point u = m 2^-53 that one site of GRID draws exactly."""
    m = (rng.hash_parts(seed, GRID) >> np.uint64(11)).ravel()
    return float(m[j]) * 2.0**-53


@given(seed=st.integers(0, 2**64 - 1), j=st.integers(0, SITES - 1),
       side=st.sampled_from([-1, 0, 1]))
@settings(max_examples=80, deadline=None)
def test_bernoulli_threshold_is_exact_at_hashed_cut(seed, j, side):
    p = _hashed_cut(seed, j)
    p = p if side == 0 else math.nextafter(p, side * math.inf)
    probs = (p, 1.0 - p)
    assert np.array_equal(rng.atoms(seed, GRID, rng.thresholds(probs)),
                          float_atoms(probs, seed, GRID))


@given(seed=st.integers(0, 2**64 - 1), j=st.integers(0, SITES - 1), side=st.sampled_from([-1, 0, 1]),
       weights=st.lists(st.floats(1e-6, 1.0), min_size=0, max_size=2),
       last=st.sampled_from([1e-13, 1e-3, 0.2]))
@settings(max_examples=80, deadline=None)
@example(seed=0, j=0, side=0, weights=[], last=1e-13)
def test_raw_measure_atoms_match_float_reference(seed, j, side, weights, last):
    # the first cumulative sum sits on or next to a hashed cut; the others
    # split the rest; the last atom is last
    first = _hashed_cut(seed, j)
    first = first if side == 0 else math.nextafter(first, side * math.inf)
    first = min(first, 1.0 - last)
    rest = 1.0 - last - first
    probs = [first] + [rest * w / sum(weights) for w in weights] + [last]
    assert np.array_equal(rng.atoms(seed, GRID, rng.thresholds(probs)),
                          float_atoms(probs, seed, GRID))


@pytest.mark.parametrize("probs", [(0.5, 0.5, 1e-17), (0.25, 0.75 - 1e-16, 1e-16),
                                   (0.5, 0.5 + 5e-13, 1e-13)])
def test_last_atom_after_a_sum_that_rounds_to_one(probs):
    measure = SupportMeasure(2, tuple(zip((0b0011, 0b1100, 0b0101), probs)))
    for seed in range(20):
        got = rng.atoms(seed, GRID, measure.thresholds)
        assert np.array_equal(got, float_atoms(measure.probs, seed, GRID))


def test_many_atoms_use_a_wide_index():
    # a d=5 measure can have 1024 atoms; the index must count past 255
    probs = [1.0 / 1024] * 1024
    got = rng.atoms(5, (np.arange(20000),), rng.thresholds(probs))
    assert got.max() > 255
    assert np.array_equal(got, float_atoms(probs, 5, (np.arange(20000),)))
