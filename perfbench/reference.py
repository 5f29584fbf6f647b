"""Write reference.json, the results later runs must reproduce bit for bit.

    python3 perfbench/reference.py --seeds 0-31 [--workload NAME ...]

Run it only at a commit whose results are trusted.  For each workload it
runs the job once per seed and stores, for the first seed, every call's
result summary and, for every seed, a SHA-256 digest of the summaries.
Workloads not named keep their entries.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-31", help="first-last, inclusive")
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    args = ap.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    _, workloads = run.import_package()
    path = run.HERE / "reference.json"
    out = json.loads(path.read_text())
    for name in args.workload or workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name]
        entry = {"results": {}, "sha256": {}}
        for seed in range(first, last + 1):
            calls = wl.job(seed)
            results = run.run_job(calls).results
            failed, problems, _, summaries = run.check_results(wl, calls, results, None)
            problems += wl.cross_check(calls)
            if failed or problems:
                sys.exit(f"{name} seed {seed}: {problems[:3]}; not writing a reference")
            if seed == first:
                entry["results"][str(seed)] = summaries
            entry["sha256"][str(seed)] = run.digest(summaries)
            print(name, seed, entry["sha256"][str(seed)][:12], flush=True)
        out[name] = entry
    path.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
