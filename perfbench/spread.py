"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload sweep-bisect --seeds 1 2 3 4 5

Runs perfbench/run.py once per seed, one run at a time, with the
BENCHMARK.json run length, and prints for each end-to-end metric its median
and the distance between the first and third quartiles as a share of the
median, next to the metric's bound.  A spread must stay within the bound
(setup_s excepted); aim for a third of it.  The raw results are appended
to .perfbench_out/spread.jsonl, with the run record's raw wall-time figures
and the host slowdown of each repetition.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spread(values: list[float]) -> tuple[float, float]:
    """(quartile distance over median, median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med, med


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    worst = 0.0
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [sys.executable, *bench["command"][1:], "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600, check=True)
            *_, record, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            raw = json.loads(record)["record"]["raw"]
            with open(out_dir / "spread.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": name, "seed": seed, **result,
                                     "raw": raw}) + "\n")
            if not result["correct"]:
                print(f"{name} seed {seed}: INCORRECT ({result['failed']} failed)")
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            for key in ("wall_s", "setup_s"):
                values.setdefault(f"raw {key}", []).append(raw[key])
        print(f"{name}  ({len(args.seeds)} seeds)")
        for metric in bench["end_to_end"]:
            spread, med = _spread(values[metric["name"]])
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            print(f"  {metric['name']:17s} median {med:12.6g} {metric['unit']:4s}"
                  f" spread {spread:7.2%}  bound {metric['bound']:.0%}")
        for key in ("raw wall_s", "raw setup_s"):
            spread, med = _spread(values[key])
            print(f"  {key:17s} median {med:12.6g} s    spread {spread:7.2%}  (not normalised)")
    print(f"worst spread / bound (setup_s excepted): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
