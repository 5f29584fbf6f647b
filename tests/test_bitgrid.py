import re
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dre.bitgrid import (
    PackedGrid,
    edge_mask,
    move_masks,
    mutual_stats,
    pack_rows,
    reach_batch,
    reversed_moves,
    unpack_words,
)
from dre.clusters import backward_cluster, communicating_cluster, forward_cluster
from dre.directions import BIT_E, BIT_N, BIT_S, BIT_W
from dre.env import Window, sample_environment
from dre.models import ModelId

from conftest import MIXED_MEASURES


@given(nx=st.integers(1, 150), ny=st.integers(1, 20), seed=st.integers(0, 2**20))
@settings(max_examples=40, deadline=None)
def test_pack_unpack_roundtrip(nx, ny, seed):
    rng = np.random.default_rng(seed)
    grid = rng.random((nx, ny)) < 0.4
    packed = pack_rows(grid.T)
    assert np.array_equal(unpack_words(packed, nx), grid)
    assert int(np.bitwise_count(packed).sum()) == int(grid.sum())


def _naive_words(nx, ny, planes):
    """(k, ny, nwords) uint64 words with bit x of row y set where planes[k](x, y)."""
    words = np.zeros((len(planes), ny, -(-nx // 64)), dtype=np.uint64)
    for k, plane in enumerate(planes):
        for x, y in product(range(nx), range(ny)):
            if plane(x, y):
                words[k, y, x // 64] |= np.uint64(1 << (x % 64))
    return words


@given(nx=st.sampled_from([1, 2, 63, 64, 65, 129]), ny=st.integers(1, 4),
       seed=st.integers(0, 2**20))
@settings(max_examples=30, deadline=None)
def test_move_masks_do_not_depend_on_layout(nx, ny, seed):
    arrows = np.random.default_rng(seed).integers(0, 16, (nx, ny), dtype=np.uint16)
    steps = ((BIT_E, 1, 0), (BIT_N, 0, 1), (BIT_W, -1, 0), (BIT_S, 0, -1))
    naive = _naive_words(nx, ny, [
        lambda x, y, bit=bit, dx=dx, dy=dy: bool(arrows[x, y] & bit)
        and 0 <= x + dx < nx and 0 <= y + dy < ny
        for bit, dx, dy in steps])
    layouts = (np.ascontiguousarray(arrows), np.asfortranarray(arrows),
               np.ascontiguousarray(arrows.T).T, np.repeat(arrows, 2, axis=0)[::2])
    for view in layouts:
        assert np.array_equal(view, arrows)
        assert np.array_equal(move_masks(view), naive)


@pytest.mark.parametrize("nx,ny", list(product([1, 2, 63, 64, 65], repeat=2)))
def test_edge_mask_is_the_ring(nx, ny):
    naive = _naive_words(nx, ny, [lambda x, y: x in (0, nx - 1) or y in (0, ny - 1)])
    assert np.array_equal(edge_mask(nx, ny), naive[0])


def test_reach_matches_bfs_on_models():
    for i, model in enumerate(MIXED_MEASURES):
        env = sample_environment(model, Window.centered(6), 31 + i)
        pg = PackedGrid.from_env(env)
        for backward in (False, True):
            r, touched = pg.reach(6, 6, backward=backward)
            got = {(int(ix) - 6, int(iy) - 6)
                   for ix, iy in np.argwhere(pg.unpack(r))}
            ref = (backward_cluster if backward else forward_cluster)(env, (0, 0))
            assert got == set(ref.sites)
            assert touched == ref.touches_boundary


def test_reach_stats_kinds():
    env = sample_environment(ModelId("EW-NS", 0.5), Window.centered(5), 9)
    pg = PackedGrid.from_env(env)
    (size,), (touched,) = mutual_stats(pg.moves[:, None], 5, 5, pg.edge)
    ref = communicating_cluster(env, (0, 0))
    assert size == len(ref.sites)
    # the communicating flag tracks the set itself, not its factors
    assert touched == any(env.window.on_edge(s) for s in ref.sites)


def test_stop_at_edge_agrees_on_touch():
    for seed in range(10):
        env = sample_environment(ModelId("NE-.", 0.8), Window.centered(10), seed)
        pg = PackedGrid.from_env(env)
        _, full = pg.reach(10, 10)
        _, early = pg.reach(10, 10, stop_at_edge=True)
        assert full == early


def _sites(window, packed):
    nx = window.shape[0]
    return {(int(ix) + window.lo[0], int(iy) + window.lo[1])
            for ix, iy in np.argwhere(unpack_words(packed, nx))}


@given(model=st.sampled_from(MIXED_MEASURES), seed=st.integers(0, 2**32),
       batch=st.integers(1, 5), lo_x=st.integers(-40, -1), hi_x=st.integers(1, 40),
       lo_y=st.integers(-40, -1), hi_y=st.integers(1, 40))
@settings(max_examples=30, deadline=None)
def test_reach_batch_matches_bfs(model, seed, batch, lo_x, hi_x, lo_y, hi_y):
    window = Window.box((lo_x, hi_x), (lo_y, hi_y))
    envs = [sample_environment(model, window, seed + k) for k in range(batch)]
    ix, iy = window.index((0, 0))
    edge = edge_mask(*window.shape)
    fwd = np.stack([move_masks(env.arrows) for env in envs], axis=1)
    for moves, cluster in ((fwd, forward_cluster), (reversed_moves(fwd), backward_cluster)):
        sets, touched = reach_batch(moves, ix, iy, edge)
        _, early = reach_batch(moves, ix, iy, edge, stop_at_edge=True)
        assert np.array_equal(early, touched)
        for k, env in enumerate(envs):
            ref = cluster(env, (0, 0))
            assert _sites(window, sets[k]) == set(ref.sites)
            assert int(np.bitwise_count(sets[k]).sum()) == len(ref.sites)  # no stray padding bits
            assert touched[k] == ref.touches_boundary
            one_set, one_touched = reach_batch(moves[:, k:k + 1], ix, iy, edge)
            assert np.array_equal(one_set[0], sets[k]) and one_touched[0] == touched[k]


def test_declared_numpy_floor_has_bitwise_count():
    # mutual_stats calls np.bitwise_count, which numpy added in 2.0
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', pyproject)
    assert floor is not None
    assert (int(floor[1]), int(floor[2])) >= (2, 0)
