"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run at their stated scale with fixed seeds, so the
suite is deterministic.  Criterion 1 includes the printed five-neighbor
lattice bound 0.4311; the unique root of its defining cubic is 0.43016,
so that single assertion fails honestly (see the bounds module and the
repository notes): the computed value, the residual check, and every other
constant in the criterion pass.
"""

import time

import numpy as np

from dre.bounds import (
    CUBICS,
    FSOSP,
    OTSP,
    boundary_sequence,
    cubic_root,
    epsilon_d0,
    exhaustive_duality_check,
    saw_counts,
    verify_duality,
)
from dre.clusters import (
    BlockingFunction,
    backward_cluster,
    communicating_cluster,
    forward_cluster,
    verify_blocking_function,
)
from dre.directions import parse_token
from dre.env import EnvironmentGrid, Window, sample_environment
from dre.models import ModelId, measure_for
from dre.montecarlo import (
    bisect_pc,
    check_theta_identity,
    classify_shapes,
    dn_transition_test,
    lu_walk_test,
    m_size_stats,
    martingale_test,
    seoa_excursion_test,
    theta_minus_curve,
    w_walk_drift_test,
)
from dre.walks import detect_gigantic_m

from conftest import MIXED_MEASURES
from oracles import naive_saw_count, oracle_cluster_sets, oracle_touches

SUITE_SEED = 20260808


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_exact_constants():
    t0 = time.perf_counter()
    r_otsp = cubic_root("OTSP_bound")
    r_fsosp = cubic_root("FSOSP_bound")
    vals = epsilon_d0(2, "RigorousUpper")
    elapsed = time.perf_counter() - t0

    ok_otsp = round(r_otsp, 4) == 0.4534
    ok_resid = (abs(CUBICS["OTSP_bound"](r_otsp)) <= 1e-8
                and abs(CUBICS["FSOSP_bound"](r_fsosp)) <= 1e-8)
    ok_eps = (round(vals["sigma_inv_sq"], 5) == 0.13931
              and round(vals["eps0"], 5) == 0.16730
              and round(1 - vals["eps0"], 5) == 0.83270)
    ok_time = elapsed < 1.0
    ok_fsosp_printed = round(r_fsosp, 4) == 0.4311

    ok = ok_otsp and ok_resid and ok_eps and ok_time and ok_fsosp_printed
    report(1, ok,
           f"otsp_root={r_otsp:.5f} fsosp_root={r_fsosp:.5f} "
           f"(printed value 0.4311 vs computed {round(r_fsosp, 4)}) "
           f"eps0={vals['eps0']:.5f} runtime={elapsed:.3f}s")
    assert ok_otsp and ok_resid and ok_eps and ok_time
    assert ok_fsosp_printed, (
        "the five-neighbor bound computes to "
        f"{r_fsosp:.5f} (root of q^3-2q^2+3q-1, residual <= 1e-8); the printed "
        "constant 0.4311 does not satisfy the cubic: 1 - 0.4311 = 0.5689 is "
        "not the root of p^3-p^2+2p-1 = 0 (0.56984 is)"
    )


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    window = Window.box((0, 5), (0, 5))
    origin = (2, 2)
    for trial in range(1000):
        model = MIXED_MEASURES[trial % len(MIXED_MEASURES)]
        env = sample_environment(model, window, SUITE_SEED + trial)
        fwd, bwd, comm = oracle_cluster_sets(env, origin)
        f = forward_cluster(env, origin)
        b = backward_cluster(env, origin)
        m = communicating_cluster(env, origin)
        assert f.sites == fwd and b.sites == bwd and m.sites == comm
        assert f.touches_boundary == oracle_touches(env, fwd)
        assert b.touches_boundary == oracle_touches(env, bwd)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    report(2, ok, f"1000 windows, exact match, runtime={elapsed:.2f}s")
    assert ok


def test_criterion_03_duality_exhaustive():
    t0 = time.perf_counter()
    n_otsp = exhaustive_duality_check(OTSP, 4, 4, 0, 2)
    n_fsosp = exhaustive_duality_check(FSOSP, 3, 4, 0, 2)

    # spot-check the production verifiers against the same predicate
    gen = np.random.default_rng(SUITE_SEED)
    window = Window.box((0, 3), (0, 3))
    measure = measure_for(ModelId("NE-SW", 0.5))
    checked = 0
    for _ in range(150):
        wv = sorted((int(gen.integers(0, 3)) for _ in range(4)), reverse=True)
        w = BlockingFunction.from_values("upper", (0, 3), wv)
        arrows = np.where(gen.random((4, 4)) < 0.5, parse_token("NE"),
                          parse_token("SW")).astype(np.uint16)
        env = EnvironmentGrid(window=window, arrows=arrows, measure=measure)
        ok_scan, _ = verify_blocking_function(env, w)
        ok_dual, _ = verify_duality(env, w, OTSP)
        all_open = all(env.mask_at(v) == parse_token("NE")
                       for v in boundary_sequence(w, OTSP) if window.contains(v))
        assert ok_scan == ok_dual == all_open
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0 and checked == 150
    report(3, ok, f"{n_otsp} three-move pairs, {n_fsosp} five-move pairs, "
                  f"{checked} spot checks, zero exceptions, runtime={elapsed:.1f}s")
    assert ok


def test_criterion_04_theta_identity():
    t0 = time.perf_counter()
    rep = check_theta_identity(ModelId("NE-.", 0.75), 100, 20000,
                               master_seed=SUITE_SEED)
    elapsed = time.perf_counter() - t0
    ok = abs(rep.z) <= 3.0
    report(4, ok, f"theta+={rep.lhs:.4f} p*theta-={rep.rhs:.4f} "
                  f"z={rep.z:.2f} runtime={elapsed:.0f}s")
    assert ok


def test_criterion_05_transition_laws():
    t0 = time.perf_counter()
    dn = dn_transition_test(0.5, samples=100000, k_max=6, master_seed=SUITE_SEED)
    lu = lu_walk_test(0.5, samples=100000, master_seed=SUITE_SEED)
    elapsed = time.perf_counter() - t0
    ok = dn.max_abs_z <= 3.0 and lu.max_abs_z <= 3.0
    report(5, ok, f"width-chain max|z|={dn.max_abs_z:.2f} "
                  f"edge-walk max|z|={lu.max_abs_z:.2f} runtime={elapsed:.1f}s")
    assert ok


def test_criterion_06_drifts():
    t0 = time.perf_counter()
    zs = {}
    for p in (0.35, 0.5, 0.7):
        rep = seoa_excursion_test(p, 100000, master_seed=SUITE_SEED + int(p * 100))
        zs[f"W({p})"] = rep.z
    lu = lu_walk_test(0.5, samples=100000, master_seed=SUITE_SEED + 1)
    zs["dL0"] = (lu.mean_dl - lu.drift_dl) / lu.se_dl
    zs["dU0"] = (lu.mean_du - lu.drift_du) / lu.se_du
    wrep = w_walk_drift_test(0.5, 100000, master_seed=SUITE_SEED + 2)
    zs["dW"] = wrep.z
    elapsed = time.perf_counter() - t0
    worst = max(abs(v) for v in zs.values())
    ok = worst <= 3.0
    report(6, ok, "max|z|=%.2f over %s, runtime=%.1fs"
           % (worst, {k: round(v, 2) for k, v in zs.items()}, elapsed))
    assert ok


def test_criterion_07_martingale():
    t0 = time.perf_counter()
    mart = martingale_test(0.5, 60, 10000, n_levels=30, master_seed=SUITE_SEED)
    curve = theta_minus_curve(0.5, (25, 50, 100), 10000, master_seed=SUITE_SEED)
    elapsed = time.perf_counter() - t0
    ests = [r.estimate for r in curve]
    ok = (mart.means[0] == 1.0 and mart.max_abs_z <= 3.0
          and ests[0] > ests[1] > ests[2])
    report(7, ok, f"max|z|={mart.max_abs_z:.2f} over 30 levels; "
                  f"theta-(25,50,100)={tuple(round(e, 4) for e in ests)} "
                  f"runtime={elapsed:.0f}s")
    assert ok


def test_criterion_08_structure_regimes():
    t0 = time.perf_counter()
    mid = classify_shapes(ModelId("NE-SW", 0.5), 100, 400,
                          master_seed=SUITE_SEED, margin=100)
    frac_full = mid.fraction_of_reaching("FullWindow")

    high = classify_shapes(ModelId("NE-SW", 0.9), 100, 400,
                           master_seed=SUITE_SEED + 1, margin=100,
                           verify_dual=True)
    blocked = high.counts.get("BlockedAbove", 0)
    frac_blocked = high.fraction_of_reaching("BlockedAbove")

    rows = m_size_stats(ModelId("NE-SW", 0.9), (50, 100), 1500,
                        master_seed=SUITE_SEED + 2)
    drift = abs(rows[0].mean_size - rows[1].mean_size) / rows[1].mean_size

    elapsed = time.perf_counter() - t0
    ok = (mid.reaching > 0 and frac_full >= 0.95
          and high.reaching > 0 and frac_blocked >= 0.95
          and high.blocked_above_monotone == blocked
          and high.blocked_above_verified == blocked
          and drift <= 0.05
          and rows[1].boundary_rate <= 0.01)
    report(8, ok,
           f"FullWindow {frac_full:.3f} of {mid.reaching}; BlockedAbove "
           f"{frac_blocked:.3f} of {high.reaching} (all monotone+verified); "
           f"mean|M| {rows[0].mean_size:.2f}->{rows[1].mean_size:.2f} "
           f"drift {drift:.3%}, touch rate {rows[1].boundary_rate:.4f}; "
           f"runtime={elapsed:.0f}s")
    assert ok


def test_criterion_09_percolation_landmarks():
    t0 = time.perf_counter()
    ne = bisect_pc("NE-.", radius=200, bracket=(0.55, 0.9),
                   master_seed=SUITE_SEED)
    otsp = bisect_pc("otsp", radius=200, bracket=(0.45, 0.8),
                     master_seed=SUITE_SEED + 1)
    elapsed = time.perf_counter() - t0
    ok = (0.68 <= ne.p_hat <= 0.73
          and 0.57 <= otsp.p_hat <= 0.62
          and otsp.p_hat >= 0.5466 - 0.01)
    report(9, ok, f"NE p_hat={ne.p_hat:.4f} (est 0.7055); "
                  f"OTSP p_hat={otsp.p_hat:.4f} (est 0.5956, bound 0.5466); "
                  f"runtime={elapsed:.0f}s")
    assert ok


def test_criterion_10_saw_oracle():
    t0 = time.perf_counter()
    counts = saw_counts(2, 12)
    ok_head = counts[:4] == [4, 12, 36, 100]
    ok_oracle = all(counts[n - 1] == naive_saw_count(n) for n in range(1, 6))
    ok_growth = all(c ** (1.0 / n) >= 2.6256 for n, c in enumerate(counts, 1))
    elapsed = time.perf_counter() - t0
    ok = ok_head and ok_oracle and ok_growth and elapsed < 30.0
    report(10, ok, f"c1..c4={counts[:4]} c12={counts[11]} "
                   f"min growth={min(c ** (1 / n) for n, c in enumerate(counts, 1)):.4f} "
                   f"runtime={elapsed:.1f}s")
    assert ok


def test_criterion_11_gigantic_detection():
    t0 = time.perf_counter()
    found = 0
    all_checks = True
    for seed in range(100):
        env = sample_environment(ModelId("EW-NS", 0.5), Window.centered(40),
                                 SUITE_SEED + seed)
        rep = detect_gigantic_m(env, 5, seed=seed)
        if rep.found:
            found += 1
            if not rep.checks_passed:
                all_checks = False

    none_found = 0
    for seed in range(100):
        env = sample_environment(ModelId("NE-SW", 0.95), Window.centered(40),
                                 SUITE_SEED + seed)
        rep = detect_gigantic_m(env, 5, seed=seed)
        none_found += rep.found
    elapsed = time.perf_counter() - t0
    ok = found >= 90 and all_checks and none_found == 0
    report(11, ok, f"bidirectional model: {found}/100 cycles, checks "
                   f"{'all pass' if all_checks else 'FAILED'}; orthant p=0.95: "
                   f"{none_found}/100 cycles; runtime={elapsed:.0f}s")
    assert ok
