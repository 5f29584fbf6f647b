"""Benchmark of the dre Monte Carlo entry points.

    python3 perfbench/run.py --workload reach-generic --seed 0 --seconds 30 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory, never from an installed copy.  One process, one thread.  The
run sets up (import plus warm-up, several times), repeats the workload's
fixed job until --seconds have passed, checks every result, cross-checks a
few trials against an independent path in the package, and prints a run
record line and then, as the last line, the result object.  Times are
normalised to a reference host speed sampled between calls (hostspeed.py).
With --trace 1 it repeats the job untraced and then traced, half the time
each, and reports per-layer metrics; the spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
SETUP_SHARE = 0.5
P90_MIN_SAMPLES = 100


def percentile(values, pct: float) -> tuple[float, int]:
    """Linearly interpolated percentile of the samples, with their count."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of no samples")
    pos = (n - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), n


def same_bits(a, b) -> bool:
    """Exact equality of result summaries; float repr round-trips every bit."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def digest(summaries: list) -> str:
    return hashlib.sha256(json.dumps(summaries, sort_keys=True).encode()).hexdigest()


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_package():
    if not (SRC / "dre" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'dre'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import dre
    import workloads

    if Path(dre.__file__).resolve().parent != SRC / "dre":
        sys.exit(f"perfbench: imported dre from {dre.__file__}, not {SRC}")
    return dre, workloads


def normalised_setup(seconds: float) -> float:
    """Set-up seconds at the reference host speed, like the timed phase's
    (hostspeed.py): the grid kernel runs right after, for SETUP_SHARE of
    the set-up time, and is freed before any job runs."""
    from hostspeed import HostSpeed

    host = HostSpeed("grid")
    host.sample(seconds, SETUP_SHARE)
    return seconds / host.take()


def setup_in_child(workload: str) -> tuple[float, float]:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    raw, norm = out.stdout.strip().splitlines()[-1].split()
    return float(raw), float(norm)


class Rep(NamedTuple):
    """One repetition of the job."""

    results: list
    secs: list[float]    # per-call wall seconds
    job_s: float         # the calls' wall seconds, summed
    slowdown: float      # the host's slowdown over the repetition (hostspeed.py)


def run_job(calls, host: HostSpeed | None = None, call=None) -> Rep:
    """Run every call once, in order, sampling the host's speed after each
    when a host is given (the slowdown is NaN otherwise)."""
    results, secs = [], []
    for c in calls:
        t0 = time.perf_counter()
        try:
            results.append(c.run() if call is None else c.run(call))
        except Exception as exc:  # a raising call is a failed call, not a crash
            results.append(exc)
        secs.append(time.perf_counter() - t0)
        if host is not None:
            host.sample(secs[-1])
    return Rep(results, secs, math.fsum(secs), host.take() if host else math.nan)


def timed_phase(calls, seconds: float, host: HostSpeed, call=None) -> list[Rep]:
    """Repeat the job until seconds have passed; at least one repetition."""
    reps = []
    t_start = time.perf_counter()
    while True:
        reps.append(run_job(calls, host, call))
        if time.perf_counter() - t_start >= seconds:
            return reps


def normalised(rep: Rep, seconds: float) -> float:
    """seconds of rep's work at the reference host speed (see hostspeed.py)."""
    return seconds / rep.slowdown


def check_results(wl, calls, results, reference):
    """(failed calls, problems, trials, summaries) of one job's results.

    reference, when given, holds the expected summaries of a prefix of the
    job, compared bit for bit.
    """
    problems, summaries = [], []
    failed = trials = 0
    reference = reference or []
    for i, (c, res) in enumerate(zip(calls, results)):
        if isinstance(res, Exception):
            bad = [f"{c.label}: raised {res!r}"]
            summaries.append(None)
        else:
            bad = wl.problems(c, res)
            summaries.append(wl.summary(res))
            trials += wl.trials(c, res)
        if i < len(reference) and not same_bits(summaries[-1], reference[i]):
            bad.append(f"{c.label} (call {i}): {summaries[-1]} != reference {reference[i]}")
        problems += bad
        failed += bool(bad)
    return failed, problems, trials, summaries


def check_reps(wl, calls, reps, reference):
    """(attempted, failed, problems, trials per job, first summaries).

    Every repetition after the first must equal the first bit for bit.
    """
    failed, problems, trials, first = check_results(wl, calls, reps[0].results, reference)
    for rep in reps[1:]:
        more = check_results(wl, calls, rep.results, first)
        failed += more[0]
        problems += more[1]
    return len(calls) * len(reps), failed, problems, trials, first


def end_to_end(reps: list[Rep], trials: int, setup: list[tuple[float, float]],
               rss: float):
    """The end-to-end metrics and, for the record, their raw wall-time twins.

    Times are normalised to the reference host speed, repetition by
    repetition, then averaged over the repetitions: host load drifts within
    and between runs, and normalising removes it where a median or minimum
    over a 30-second run does not.  setup holds (raw, normalised) seconds
    of each set-up.
    """
    def timings(scale):
        wall = statistics.fmean(scale(r, r.job_s) for r in reps)
        call_ms = [1000.0 * statistics.fmean(scale(r, r.secs[i]) for r in reps)
                   for i in range(len(reps[0].secs))]
        return wall, call_ms

    wall, call_ms = timings(normalised)
    raw_wall, raw_call_ms = timings(lambda r, s: s)
    p50, n = percentile(call_ms, 50)
    p90, _ = percentile(call_ms, 90)
    metrics = {
        "wall_s.norm": (wall, "s"),
        "trials_per_s.norm": (trials / wall, "1/s"),
        "call_ms.p50.norm": (p50, "ms"),
        "call_ms.p90.norm": (p90, "ms"),
        "setup_s": (statistics.median(norm for _, norm in setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    raw = {
        "wall_s": raw_wall,
        "trials_per_s": trials / raw_wall,
        "call_ms.p50": percentile(raw_call_ms, 50)[0],
        "call_ms.p90": percentile(raw_call_ms, 90)[0],
        "setup_s": statistics.median(raw for raw, _ in setup),
        "slowdown": [r.slowdown for r in reps],
    }
    return metrics, {"calls": n, "p90_below_min_samples": n < P90_MIN_SAMPLES,
                     "job_reps": len(reps), "raw": raw}


def per_layer(tracer, reps, traced_reps, trials: int) -> dict:
    """Layer metrics per job, averaged over the traced repetitions."""
    from tracing import ENTRY, LAYERS

    k = len(traced_reps)
    totals = tracer.layer_totals()
    out = {}
    for layer in list(LAYERS) + [ENTRY]:
        calls, own = totals.get(layer, (0, 0.0))
        if layer != ENTRY:
            out[f"{layer}.calls"] = (calls / k, "count")
        out[f"{layer}.self_s"] = (own / k, "s")
    c, m = tracer.counts, tracer.maxima
    reach_calls = totals.get("bitgrid.reach", (0, 0.0))[0]
    out.update({
        "bitgrid.reach.iters_mean": (c["bitgrid.reach.iters"] / reach_calls
                                     if reach_calls else 0.0, "count"),
        "bitgrid.reach.iters_max": (m["bitgrid.reach.iters_max"], "count"),
        "bitgrid.reach.early_exit_frac": (c["bitgrid.reach.early_exits"] / reach_calls
                                          if reach_calls else 0.0, "frac"),
        "bitgrid.reach.bytes_computed": (c["bitgrid.reach.bytes_computed"] / k, "B"),
        "rng.hash.values": (c["rng.hash.values"] / k, "count"),
        "rng.hash.max_bytes": (m["rng.hash.max_bytes"], "B"),
        "env.sample.sites": (c["env.sample.sites"] / k, "count"),
        "montecarlo.trials": (trials, "count"),
    })
    traced = [r.job_s for r in traced_reps]
    out["trace.wall_s"] = (statistics.fmean(traced), "s")
    out["trace.accounted_frac"] = (tracer.root_seconds() / sum(traced), "frac")
    out["trace.overhead_frac"] = (
        statistics.fmean(normalised(r, r.job_s) for r in traced_reps)
        / statistics.fmean(normalised(r, r.job_s) for r in reps) - 1.0, "frac")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and warm up, print the seconds taken, and exit")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    dre, workloads = import_package()
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl.warmup()
    first_setup = time.perf_counter() - t0
    first_setup = (first_setup, normalised_setup(first_setup))
    if args.setup_only:
        print(*map(repr, first_setup))
        return 0
    # setup_s is an end-to-end metric; a traced run reports none
    setup = [first_setup] + [setup_in_child(args.workload)
                             for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]

    import numpy as np

    calls = wl.job(args.seed)
    refs = json.loads((HERE / "reference.json").read_text()).get(args.workload, {})
    reference = refs.get("results", {}).get(str(args.seed))
    want_digest = refs.get("sha256", {}).get(str(args.seed))

    # The first repetition warms caches and sets the peak memory; it is
    # checked but not timed, and the reference kernel, which allocates too,
    # starts only after it.
    budget = args.seconds / 2 if args.trace else args.seconds
    t_start = time.perf_counter()
    first = run_job(calls)
    rss = peak_rss_mb()
    from hostspeed import HostSpeed

    host = HostSpeed(wl.reference)
    reps = timed_phase(calls, budget - (time.perf_counter() - t_start), host)
    attempted, failed, problems, trials, summaries = check_reps(
        wl, calls, [first] + reps, reference)
    metrics, call_info = end_to_end(reps, trials, setup, rss)
    if want_digest is not None:
        attempted += 1
        if digest(summaries) != want_digest:
            failed += 1
            problems.append("results differ from the reference digest")

    if args.trace:
        from tracing import ENTRY, Tracer

        tracer = Tracer()
        with tracer.installed():
            traced = timed_phase(calls, budget, host,
                                 functools.partial(tracer.call, ENTRY))
        t_attempted, t_failed, t_problems, _, _ = check_reps(wl, calls, traced, summaries)
        attempted += t_attempted
        failed += t_failed
        problems += t_problems
        metrics = per_layer(tracer, reps, traced, trials)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    cross = wl.cross_check(calls)
    attempted += 1
    failed += bool(cross)
    problems += cross

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": wl.params,
        "dre": dre.__version__, "numpy": np.__version__,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(ROOT), "setup_samples_s": setup,
        "failed_frac": failed / attempted, "problems": problems[:20],
        "reference_calls": len(reference or []),
        "reference_digest": want_digest is not None, "results": summaries,
        **call_info,
    }
    if args.trace:
        record["unwrapped"] = tracer.unwrapped
    print(json.dumps({"record": record}, default=list))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
