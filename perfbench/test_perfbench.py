"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import math
from types import SimpleNamespace

import run
from tracing import Tracer, self_times


def test_self_time_subtracts_child_coverage():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["b.overlap", 8.5, 9.5, 3],  # clipped to its parent's end
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.5, 1.0]


def test_percentile_interpolates_and_counts():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.percentile(values, 50) == (50.5, 100)
    p90, n = run.percentile(values, 90)
    assert math.isclose(p90, 90.1) and n == 100
    assert run.percentile([7.0], 90) == (7.0, 1)


def test_one_ulp_change_in_an_estimate_is_a_failure():
    identity = SimpleNamespace(problems=lambda call, res: [],
                               summary=lambda res: res, trials=lambda call, res: 1)
    calls = [SimpleNamespace(label="a"), SimpleNamespace(label="b")]
    reference = [{"estimate": 0.4311, "se": 0.01}]
    nudged = {"estimate": math.nextafter(0.4311, 1.0), "se": 0.01}
    failed, problems, trials, _ = run.check_results(
        identity, calls, [dict(reference[0]), nudged], reference)
    assert (failed, trials) == (0, 2)  # only the first call has a reference
    failed, problems, _, _ = run.check_results(
        identity, calls[:1], [nudged], reference)
    assert failed == 1 and "reference" in problems[0]


def test_tracer_spans_layers_and_restores_attributes():
    run.import_package()
    from dre import env, montecarlo
    from dre.bitgrid import PackedGrid
    from dre.models import ModelId

    originals = (env.sample_masks, montecarlo.sample_masks, vars(PackedGrid)["from_arrows"])
    tracer = Tracer()
    plan = montecarlo.TrialPlan(ModelId("NE-SW", 0.5), 6, 2, 3, montecarlo.SIZE_M)
    with tracer.installed():
        traced = tracer.call("montecarlo", montecarlo.run_plan, plan)
    assert (env.sample_masks, montecarlo.sample_masks,
            vars(PackedGrid)["from_arrows"]) == originals
    assert traced.estimate == montecarlo.run_plan(plan).estimate
    totals = tracer.layer_totals()
    assert totals["env.sample"][0] == 2 and totals["bitgrid.reach"][0] == 4
    assert tracer.counts["bitgrid.reach.iters"] >= 4 and not tracer.unwrapped
    own = sum(s for _, s in totals.values())
    assert math.isclose(own, tracer.root_seconds(), rel_tol=1e-9)


def test_times_are_divided_by_each_repetition_slowdown():
    reps = [run.Rep([], [1.0, 3.0], 4.0, 2.0), run.Rep([], [0.5, 1.5], 2.0, 1.0)]
    setup = [(0.3, 0.6), (0.1, 0.2), (0.2, 0.4)]
    metrics, info = run.end_to_end(reps, trials=8, setup=setup, rss=10.0)
    assert metrics["wall_s.norm"] == (2.0, "s")
    assert metrics["trials_per_s.norm"] == (4.0, "1/s")
    assert metrics["call_ms.p50.norm"][0] == 1000.0
    assert metrics["setup_s"] == (0.4, "s") and info["raw"]["setup_s"] == 0.2
    assert info["raw"]["wall_s"] == 3.0 and info["raw"]["slowdown"] == [2.0, 1.0]
