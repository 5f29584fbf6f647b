import re
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dre.bitgrid import (
    PackedGrid,
    _plan,
    _planes,
    _step,
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

# (arrow bit, dx, dy) of the moves in the kernel's E, N, W, S order
STEPS = ((BIT_E, 1, 0), (BIT_N, 0, 1), (BIT_W, -1, 0), (BIT_S, 0, -1))


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
    naive = _naive_words(nx, ny, [
        lambda x, y, bit=bit, dx=dx, dy=dy: bool(arrows[x, y] & bit)
        and 0 <= x + dx < nx and 0 <= y + dy < ny
        for bit, dx, dy in STEPS])
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
        pg = PackedGrid.from_arrows(env.arrows)
        for backward in (False, True):
            r, touched = pg.reach(6, 6, backward=backward)
            got = {(int(ix) - 6, int(iy) - 6)
                   for ix, iy in np.argwhere(unpack_words(r, pg.nx))}
            ref = (backward_cluster if backward else forward_cluster)(env, (0, 0))
            assert got == set(ref.sites)
            assert touched == ref.touches_boundary


def test_reach_stats_kinds():
    env = sample_environment(ModelId("EW-NS", 0.5), Window.centered(5), 9)
    pg = PackedGrid.from_arrows(env.arrows)
    (size,), (touched,) = mutual_stats(pg.moves[:, None], 5, 5, pg.edge)
    ref = communicating_cluster(env, (0, 0))
    assert size == len(ref.sites)
    # the communicating flag tracks the set itself, not its factors
    assert touched == any(env.window.on_edge(s) for s in ref.sites)


@given(model=st.sampled_from(MIXED_MEASURES), seed=st.integers(0, 2**32),
       batch=st.integers(1, 4), nx=st.integers(3, 70), ny=st.integers(3, 12),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_mutual_stats_matches_communicating_cluster(model, seed, batch, nx, ny, data):
    # M is reached backward inside C; any origin, the edge ring included
    ox, oy = data.draw(st.integers(0, nx - 1)), data.draw(st.integers(0, ny - 1))
    window = Window.box((0, nx - 1), (0, ny - 1))
    envs = [sample_environment(model, window, seed + k) for k in range(batch)]
    moves = np.stack([move_masks(env.arrows) for env in envs], axis=1)
    edge = edge_mask(nx, ny)
    sizes, touched = mutual_stats(moves, ox, oy, edge)
    refs = [communicating_cluster(env, (ox, oy)) for env in envs]
    assert sizes.tolist() == [len(ref.sites) for ref in refs]
    assert touched.tolist() == [ref.touches_boundary for ref in refs]


def test_stop_at_edge_agrees_on_touch():
    for seed in range(10):
        env = sample_environment(ModelId("NE-.", 0.8), Window.centered(10), seed)
        pg = PackedGrid.from_arrows(env.arrows)
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
        # one start per trial, all on the first window's moves
        starts = np.random.default_rng(seed).integers(0, window.shape, (batch, 2))
        sets, touched = reach_batch(moves[:, :1], starts[:, 0], starts[:, 1], edge)
        for (sx, sy), got, hit in zip(starts.tolist(), sets, touched):
            ref = cluster(envs[0], (sx + window.lo[0], sy + window.lo[1]))
            assert _sites(window, got) == set(ref.sites) and hit == ref.touches_boundary
        none = np.empty(0, dtype=np.intp)
        sets, touched = reach_batch(moves[:, :1], none, none, edge)
        assert sets.shape == (0,) + edge.shape and touched.shape == (0,)


def _random_arrows(rng, batch, nx, ny, density):
    """(batch, nx, ny) arrow masks, each of the four arrows open with prob density."""
    open_ = rng.random((4, batch, nx, ny)) < density
    return sum(open_[k].astype(np.uint16) * bit for k, (bit, _, _) in enumerate(STEPS))


def _shifted(plane, dx, dy):
    """(nx, ny) plane moved by (dx, dy); what leaves the window is dropped."""
    nx, ny = plane.shape
    out = np.zeros_like(plane)
    out[max(dx, 0):nx + min(dx, 0), max(dy, 0):ny + min(dy, 0)] = (
        plane[max(-dx, 0):nx + min(-dx, 0), max(-dy, 0):ny + min(-dy, 0)])
    return out


def _naive_closure(arrows, ix, iy, backward):
    """(nx, ny) bool set reached from (ix, iy) by a site-by-site search."""
    nx, ny = arrows.shape
    seen = np.zeros((nx, ny), dtype=bool)
    seen[ix, iy] = True
    todo = [(ix, iy)]
    while todo:
        x, y = todo.pop()
        for bit, dx, dy in STEPS:
            # backward: the site one step back along the move, if it has the move
            u, v = (x - dx, y - dy) if backward else (x + dx, y + dy)
            if not (0 <= u < nx and 0 <= v < ny) or seen[u, v]:
                continue
            if arrows[(u, v) if backward else (x, y)] & bit:
                seen[u, v] = True
                todo.append((u, v))
    return seen


def _packed(grids):
    """(B, nx, ny) bool -> (B, ny, nwords) packed sets."""
    return pack_rows(np.ascontiguousarray(np.swapaxes(grids, 1, 2)))


@given(nx=st.sampled_from([1, 2, 63, 64, 65, 129]), ny=st.sampled_from([1, 2, 3, 5]),
       batch=st.sampled_from([1, 3]), density=st.floats(0.2, 0.95),
       backward=st.booleans(), seed=st.integers(0, 2**32), data=st.data())
@settings(max_examples=80, deadline=None)
def test_reach_batch_matches_naive_closure(nx, ny, batch, density, backward, seed, data):
    ix = data.draw(st.integers(0, nx - 1), label="ix")
    iy = data.draw(st.integers(0, ny - 1), label="iy")
    arrows = _random_arrows(np.random.default_rng(seed), batch, nx, ny, density)
    moves = np.stack([move_masks(a) for a in arrows], axis=1)
    if backward:
        moves = reversed_moves(moves)
    edge = edge_mask(nx, ny)
    sets, touched = reach_batch(moves, ix, iy, edge)
    _, early = reach_batch(moves, ix, iy, edge, stop_at_edge=True)
    naive = np.stack([_naive_closure(a, ix, iy, backward) for a in arrows])
    # whole words: no stray bit in the padding, another row or another trial
    assert np.array_equal(sets, _packed(naive))
    ring = np.zeros((nx, ny), dtype=bool)
    ring[[0, -1]] = ring[:, [0, -1]] = True
    assert np.array_equal(touched, (naive & ring).any(axis=(1, 2)))
    assert np.array_equal(early, touched)


@given(nx=st.integers(1, 70), ny=st.integers(1, 300) | st.integers(150, 300),
       density=st.floats(0.7, 1.0), backward=st.booleans(), seed=st.integers(0, 2**32),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_one_window_band_matches_a_batch(nx, ny, density, backward, seed, data):
    # A batch of one steps only its row band, which widens as its set nears
    # the band's ends; a batch of two copies steps every row.  Tall windows
    # and dense arrows make the band widen many times, north and south.
    ix = data.draw(st.integers(0, nx - 1), label="ix")
    iy = data.draw(st.one_of(st.sampled_from([0, ny - 1]), st.integers(0, ny - 1)), label="iy")
    arrows = _random_arrows(np.random.default_rng(seed), 1, nx, ny, density)[0]
    moves = move_masks(arrows)[:, None]
    if backward:
        moves = reversed_moves(moves)
    edge = edge_mask(nx, ny)
    for stop_at_edge in (False, True):
        one, one_hit = reach_batch(moves, ix, iy, edge, stop_at_edge)
        two, two_hit = reach_batch(np.concatenate([moves, moves], axis=1), ix, iy, edge,
                                   stop_at_edge)
        assert np.array_equal(one[0], two[0]) and np.array_equal(one[0], two[1])
        assert one_hit[0] == two_hit[0] == two_hit[1]
        if not stop_at_edge:
            assert np.array_equal(one, _packed(_naive_closure(arrows, ix, iy, backward)[None]))


@given(nx=st.sampled_from([63, 64, 65, 129]), ny=st.sampled_from([1, 2, 5, 40, 70]),
       batch=st.integers(1, 4), density=st.floats(0.3, 1.0), backward=st.booleans(),
       boxed=st.booleans(), stop_at_edge=st.booleans(), seed=st.integers(0, 2**32),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_goal_stop_keeps_the_goal_exact(nx, ny, batch, density, backward, boxed,
                                        stop_at_edge, seed, data):
    # A trial may stop once its set holds the goal; on the goal it must
    # then hold the fixpoint, and off it no site outside the fixpoint.  A
    # one-window band may not span the goal's rows; a batch has no band.
    ix = data.draw(st.integers(0, nx - 1), label="ix")
    iy = data.draw(st.integers(0, ny - 1), label="iy")
    rng = np.random.default_rng(seed)
    arrows = _random_arrows(rng, batch, nx, ny, density)
    goal = np.zeros((nx, ny), dtype=bool)
    if boxed:
        x0, x1 = sorted(data.draw(st.lists(st.integers(0, nx - 1), min_size=2, max_size=2)))
        y0, y1 = sorted(data.draw(st.lists(st.integers(0, ny - 1), min_size=2, max_size=2)))
        goal[x0:x1 + 1, y0:y1 + 1] = True
    else:
        # the start too: held from the first check, when far goal rows
        # still lie outside a one-window band
        goal[rng.integers(0, nx, 6), rng.integers(0, ny, 6)] = goal[ix, iy] = True
    moves = np.stack([move_masks(a) for a in arrows], axis=1)
    if backward:
        moves = reversed_moves(moves)
    edge = edge_mask(nx, ny)
    packed_goal = _packed(goal[None])[0]
    sets, touched = reach_batch(moves, ix, iy, edge, stop_at_edge, goal=packed_goal)
    naive = np.stack([_naive_closure(a, ix, iy, backward) for a in arrows])
    fixpoints = _packed(naive)
    ring = np.zeros((nx, ny), dtype=bool)
    ring[[0, -1]] = ring[:, [0, -1]] = True
    assert np.array_equal(sets & fixpoints, sets)
    for k in range(batch):
        if not (stop_at_edge and (naive[k] & ring).any()):
            # no edge stop can come first: the goal sites are final
            assert np.array_equal(sets[k] & packed_goal, fixpoints[k] & packed_goal)
        if (goal & ~naive[k]).any():
            # the goal is never covered: the trial runs as without it
            assert touched[k] == (naive[k] & ring).any()
            if not stop_at_edge:
                assert np.array_equal(sets[k], fixpoints[k])


def test_goal_rows_outside_the_band_keep_a_trial_running():
    # an N run up column 0 of a 100-row window, from the bottom row: the
    # goal's start site is held at once, but its top site lies far outside
    # the one-window band, whose rows hold no set bit; the trial must run on
    nx, ny = 3, 100
    arrows = np.zeros((nx, ny), dtype=np.uint16)
    arrows[0] = BIT_N
    goal = np.zeros((1, nx, ny), dtype=bool)
    goal[0, 0, [0, ny - 1]] = True
    sets, _ = reach_batch(move_masks(arrows)[:, None], 0, 0, edge_mask(nx, ny),
                          goal=_packed(goal)[0])
    assert np.array_equal(sets, _packed(_naive_closure(arrows, 0, 0, False)[None]))


def _naive_step(reached, arrows):
    """One kernel step on (nx, ny) bool: per E, N, W, S, one site, then two
    sites from the sites whose neighbour along the move has it too."""
    g = reached.copy()
    for bit, dx, dy in STEPS:
        move = (arrows & bit) != 0
        g |= _shifted(g & move, dx, dy)
        rung = move & _shifted(move, -dx, -dy)
        g |= _shifted(g & rung, 2 * dx, 2 * dy)
    return g


def _one_step(arrows, reached, light=False):
    """The packed kernel's full (or light) step on a (B, nx, ny) batch, as
    (B, ny, nwords) words."""
    moves = np.stack([move_masks(a) for a in arrows], axis=1)
    r = _packed(reached)
    light_plan, full_plan = _plan(r.reshape(-1), _planes(moves).reshape(8, -1),
                                  np.empty(r.size, np.uint64), np.empty(r.size, np.uint64),
                                  r.shape[-1])
    _step(light_plan if light else full_plan)
    return r


@given(nx=st.sampled_from([1, 2, 3, 63, 64, 65, 129]), ny=st.sampled_from([1, 2, 3, 5]),
       density=st.floats(0.3, 1.0), seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_step_moves_one_site_then_jumps_two(nx, ny, density, seed):
    rng = np.random.default_rng(seed)
    arrows = _random_arrows(rng, 3, nx, ny, density)
    reached = rng.random((3, nx, ny)) < 0.1
    naive = np.stack([_naive_step(g, a) for g, a in zip(reached, arrows)])
    assert np.array_equal(_one_step(arrows, reached), _packed(naive))


@given(nx=st.sampled_from([63, 64, 65, 129]), ny=st.sampled_from([1, 2, 3, 5]),
       density=st.floats(0.3, 1.0), seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_light_step_leaves_out_the_moves_across_a_word_edge(nx, ny, density, seed):
    rng = np.random.default_rng(seed)
    arrows = _random_arrows(rng, 3, nx, ny, density)
    reached = rng.random((3, nx, ny)) < 0.1
    # every move, one site or a jump, that crosses a word edge uses an E
    # arrow on a word's last column or a W arrow on a word's first
    inside = arrows.copy()
    inside[:, 63::64] &= ~np.uint16(BIT_E)
    inside[:, ::64] &= ~np.uint16(BIT_W)
    naive = np.stack([_naive_step(g, a) for g, a in zip(reached, inside)])
    light = _one_step(arrows, reached, light=True)
    assert np.array_equal(light, _packed(naive))
    assert np.array_equal(light & _one_step(arrows, reached), light)


def test_step_jumps_across_a_word_edge():
    # an E run over bits 62..66 of a 129-column row: one step covers 62..65,
    # the last two sites by a jump from bits 62 and 63 into the next word
    arrows = np.zeros((1, 129, 1), dtype=np.uint16)
    arrows[0, 62:67, 0] = BIT_E
    start = np.zeros((1, 129, 1), dtype=bool)
    start[0, 62] = True
    want = np.zeros((1, 129, 1), dtype=bool)
    want[0, 62:66] = True
    assert np.array_equal(_one_step(arrows, start), _packed(want))
    sets, touched = reach_batch(move_masks(arrows[0])[:, None], 62, 0, edge_mask(129, 1))
    want[0, 62:68] = True
    assert np.array_equal(sets, _packed(want)) and touched[0]
    # and back W over the same edge: 66 reaches 63 in one step
    arrows[0, 62:67, 0] = BIT_W
    start[0] = False
    start[0, 66] = True
    want[0] = False
    want[0, 63:67] = True
    assert np.array_equal(_one_step(arrows, start), _packed(want))


def test_step_allocates_no_array():
    # a step runs its plan on fixed views: numpy allocates no temporary
    arrows = _random_arrows(np.random.default_rng(0), 3, 201, 201, 0.5)
    moves = np.stack([move_masks(a) for a in arrows], axis=1)
    r = np.zeros(moves.shape[1:], dtype=np.uint64)
    r[:, 100, 1] = 1
    flat = r.reshape(-1)
    _, plan = _plan(flat, _planes(moves).reshape(8, -1), np.empty_like(flat),
                    np.empty_like(flat), r.shape[-1])
    tracemalloc.start()
    try:
        _step(plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < r.nbytes


def test_no_jump_leaks_into_the_next_trial():
    # trial 0: E from (0, 0), then an N run up column 1 to the top row, whose
    # N arrow leaves the window; trial 1 is empty and must stay {(0, 0)}
    nx, ny = 3, 4
    arrows = np.zeros((2, nx, ny), dtype=np.uint16)
    arrows[0, 0, 0] = BIT_E
    arrows[0, 1, :] = BIT_N
    moves = np.stack([move_masks(a) for a in arrows], axis=1)
    sets, touched = reach_batch(moves, 0, 0, edge_mask(nx, ny))
    want = np.zeros((2, nx, ny), dtype=bool)
    want[:, 0, 0] = want[0, 1, :] = True
    assert np.array_equal(sets, _packed(want))
    assert list(touched) == [True, True]


def test_no_backward_jump_leaks_into_the_previous_trial():
    # trial 1: an N run up column 1 ends at (1, ny - 1), whose W arrow enters
    # (0, ny - 1); the backward set of (0, ny - 1) runs down column 1 to the
    # bottom row, and trial 0 is empty and must stay {(0, ny - 1)}
    nx, ny = 3, 4
    arrows = np.zeros((2, nx, ny), dtype=np.uint16)
    arrows[1, 1, :] = BIT_N
    arrows[1, 1, ny - 1] = BIT_W
    moves = reversed_moves(np.stack([move_masks(a) for a in arrows], axis=1))
    sets, _ = reach_batch(moves, 0, ny - 1, edge_mask(nx, ny))
    want = np.zeros((2, nx, ny), dtype=bool)
    want[:, 0, ny - 1] = want[1, 1, :] = True
    assert np.array_equal(sets, _packed(want))


def test_declared_numpy_floor_has_bitwise_count():
    # mutual_stats calls np.bitwise_count, which numpy added in 2.0
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', pyproject)
    assert floor is not None
    assert (int(floor[1]), int(floor[2])) >= (2, 0)
