import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dre import rng
from dre.env import Window, sample_masks
from dre.measure import SupportMeasure
from dre.montecarlo import _site_draw

from conftest import count_passed
from oracles import float_atoms

WINDOW = Window.centered(8)  # GRID keys its sites as sample_masks does
GRID = (np.arange(-8, 9, dtype=np.int64)[:, None], np.arange(-8, 9, dtype=np.int64)[None, :])
SITES = 17 * 17
THREE_ATOMS = rng.thresholds((0.25, 0.25, 0.5))


def test_atoms_range_and_determinism():
    a = count_passed(42, (np.arange(1000), np.arange(1000)), THREE_ATOMS)
    assert a.min() >= 0 and a.max() <= len(THREE_ATOMS)
    b = count_passed(42, (np.arange(1000), np.arange(1000)), THREE_ATOMS)
    assert np.array_equal(a, b)


def test_seed_changes_stream():
    x = np.arange(200)
    assert not np.array_equal(count_passed(1, (x,), THREE_ATOMS),
                              count_passed(2, (x,), THREE_ATOMS))


@given(
    seed=st.integers(min_value=-(2**63), max_value=2**64 - 1),
    parts=st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=4),
)
@settings(max_examples=80, deadline=None)
def test_scalar_matches_vector(seed, parts):
    # Python-int parts, and 0-d arrays, are linked in Python ints; 1-element
    # arrays with numpy: both must give the same hash
    want = rng.hash_parts(seed, [np.array([v], dtype=np.int64) for v in parts])
    for key in (parts, [np.array(v, dtype=np.int64) for v in parts]):
        got = rng.hash_parts(seed, key)
        assert isinstance(got, np.uint64) and got == want[0]


@pytest.mark.parametrize("signs", [(1, 1), (-1, -1), (-1, 1)],
                         ids=["forward NE", "backward NE", "otsp"])
def test_row_draw_equals_full_grid_row(signs):
    # the lazy oriented sweep hashes a block of rows at a time, for the live trials only
    sx, sy = signs
    seeds = rng.hash_parts(11, (np.arange(5, dtype=np.int64),))
    cols = sx * np.arange(70, dtype=np.int64)
    rows = sy * np.arange(70, dtype=np.int64)
    grid = count_passed(seeds[:, None, None], (cols[:, None], rows[None, :]), THREE_ATOMS)
    for k in (0, 1, 63, 64, 69):
        row = count_passed(seeds[:, None], (cols, sy * k), THREE_ATOMS)
        assert np.array_equal(row, grid[:, :, k])
        assert np.array_equal(count_passed(seeds[[3, 1], None], (cols, sy * k), THREE_ATOMS),
                              grid[[3, 1], :, k])
    # the sweep's row draw: start hashes the (trial, column) prefix of a
    # batch, the sweep compacts it with the live trials, and finish completes
    # it with a block of rows; every site of a (K, B, n) block must still be
    # its own hash, and no state may be written
    start, finish = _site_draw(11, 7, cols)
    calls = [(range(4), [0, 1]), ([0, 2, 3], [2, 3, 4, 5]), ([0, 3], [63]), ([3], [64, 65, 66]),
             (range(4, 7), [0, 1, 2, 3]), ([4, 6], [69]), ([1, 5], [3, 4])]  # then a new batch
    have = np.array([], dtype=np.int64)
    for trials, ks in calls:
        trials = np.array(trials)
        if np.isin(trials, have).all():
            state = state[np.isin(have, trials)]
        else:
            state = start(trials)
        have, kept = trials, state.copy()
        got = finish(state, [sy * k for k in ks], 0, len(cols))
        want = [[[rng.hash_parts(rng.spawn_seed(11, t), (x, sy * k)) for x in cols]
                 for t in trials.tolist()] for k in ks]
        assert got.shape == (len(ks), len(trials), len(cols))
        assert np.array_equal(got, want), (trials, ks)
        assert np.array_equal(state, kept)


@pytest.mark.parametrize("seed", [0, 11, 2**64 - 1, 2**64 - 2, 2**63])
def test_row_finish_matches_hash_parts(seed):
    # the sweep's row draw: the (trial, column) prefix advanced once, then
    # finished per row with a link made in Python ints; seeds near 2^64 are
    # the negative ones, wrapped
    assert rng.spawn_seed(seed, 3) == rng.spawn_seed(seed - 2**64, 3)
    seeds = rng.hash_parts(seed, (np.arange(4, dtype=np.int64),))
    cols = np.arange(-3, 67, dtype=np.int64)
    state = rng.hash_parts(seeds[:, None], (cols,))
    kept = state.copy()
    prefix = rng.advanced(state)
    out, scratch = np.empty((2,) + state.shape, dtype=np.uint64)
    for y in (-2**63, -1, 0, 1, 2**63 - 1):
        assert rng.finish(prefix, y, out, scratch) is out
        assert np.array_equal(out, rng.hash_parts(seeds[:, None], (cols, y)))
        assert np.array_equal(out, rng.hash_from(state, (np.int64(y),)))
        for t, i in ((0, 0), (3, 69)):  # scalar chains, all in Python ints
            assert out[t, i] == rng.hash_parts(int(seeds[t]), (int(cols[i]), y))
            assert out[t, i] == rng.hash_parts(seeds[t], (np.array(cols[i]), np.uint64(y % 2**64)))
    assert np.array_equal(state, kept)


def test_row_draw_band_and_int_rows_match_full_rows():
    # a list of rows is linked in Python ints, an array of them with numpy:
    # both finish the same hashes, and a band [lo, hi) is their columns lo to
    # hi - 1
    cols = np.arange(-5, 130, dtype=np.int64)
    ys = [-2**63, -1, 0, 7]
    start, finish = _site_draw(4, 3, cols)
    state = start(np.arange(3))
    full = finish(state, np.array(ys, dtype=np.int64)[:, None, None], 0, len(cols)).copy()
    assert np.array_equal(finish(state, ys, 0, len(cols)), full)
    for lo, hi in ((0, 1), (3, 70), (64, 135), (134, 135)):
        assert np.array_equal(finish(state, ys, lo, hi), full[:, :, lo:hi]), (lo, hi)


def _layout(values, layout, dtype):
    """Parts of one key: 0-d, 1-d, or alternating (5, 1) and (7,) arrays."""
    if layout == "0-d":
        return [np.array(v, dtype=np.int64).astype(dtype) for v in values]
    spans = [np.arange(-3, 4)] if layout == "1-d" else [np.arange(-2, 3)[:, None], np.arange(-3, 4)]
    return [(v + spans[i % len(spans)]).astype(dtype) for i, v in enumerate(values)]


@given(seed=st.integers(min_value=-(2**63), max_value=2**64 - 1),
       values=st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=4),
       cut=st.integers(0, 4), layout=st.sampled_from(["0-d", "1-d", "broadcast"]),
       dtype=st.sampled_from([np.int64, np.uint64]))
@settings(max_examples=80, deadline=None)
def test_chain_continues_from_a_prefix(seed, values, cut, layout, dtype):
    parts = _layout(values, layout, dtype)
    a, b = parts[:cut], parts[cut:]
    kept = [part.copy() for part in parts]
    state = rng.hash_parts(seed, a)
    state_kept = np.copy(state)
    full = rng.hash_parts(seed, parts)
    for _ in range(2):  # the second draw sees what the first one left
        assert np.array_equal(rng.hash_from(state, b), full)
    scalars = [np.broadcast_to(part, np.shape(full)) for part in parts]
    for i in np.ndindex(np.shape(full)):
        key = [int(part[i]) for part in scalars]  # equal mod 2^64 to the int64 value
        assert int(rng.hash_parts(seed, key)) == full[i]
    assert np.array_equal(state, state_kept)
    assert all(np.array_equal(part, k) for part, k in zip(parts, kept))


def test_kept_buffers_carry_nothing_between_windows():
    # windows of different seeds finished one after another into the same
    # buffers: each must be its own fresh hash, and no chain state written
    xs = np.arange(-70, 61, dtype=np.int64)
    ys = np.arange(-3, 5, dtype=np.int64)[:, None]
    out, scratch = np.empty((2, len(ys), len(xs)), dtype=np.uint64)
    for seed in (3, 4, 2**63 + 5, -1, 3):
        prefix = rng.advanced(rng.hash_parts(seed, (xs,)))
        kept = prefix.copy()
        assert rng.finish(prefix, ys, out, scratch) is out
        assert np.array_equal(out, rng.hash_parts(seed, (xs, ys)))
        assert np.array_equal(prefix, kept)
        # a longer chain, from the seed's state alone
        chain = rng.hash_parts(seed, ())
        assert np.array_equal(rng.hash_from(chain, (xs, ys)), rng.hash_parts(seed, (xs, ys)))
        assert chain == rng.hash_parts(seed, ())
    assert rng.spawn_seed(7, 5) == int(rng.hash_parts(7, (np.arange(8),))[5])


def test_spawn_seed_injective_sample():
    seen = {rng.spawn_seed(7, i, j) for i in range(40) for j in range(40)}
    assert len(seen) == 1600


def test_rough_uniformity():
    eighths = count_passed(3, (np.arange(200000),), rng.thresholds([0.125] * 8))
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
    assert np.array_equal(count_passed(seed, GRID, rng.thresholds(probs)),
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
    assert np.array_equal(count_passed(seed, GRID, rng.thresholds(probs)),
                          float_atoms(probs, seed, GRID))


@pytest.mark.parametrize("probs", [(0.5, 0.5, 1e-17), (0.25, 0.75 - 1e-16, 1e-16),
                                   (0.5, 0.5 + 5e-13, 1e-13)])
def test_last_atom_after_a_sum_that_rounds_to_one(probs):
    measure = SupportMeasure(2, tuple(zip((0b0011, 0b1100, 0b0101), probs)))
    for seed in range(20):
        got = sample_masks(measure, WINDOW, seed)
        assert np.array_equal(got, measure.masks[float_atoms(measure.probs, seed, GRID)])
