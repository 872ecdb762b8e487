#!/usr/bin/env python3
"""Steadiness check: runs each workload with several seeds and reports, per
end-to-end metric, the quartile spread of the per-run values as a share of
their median, next to the metric's bound from BENCHMARK.json.

    python3 hostbench/steadiness.py [--runs 10] [--workloads a,b] [--seconds S]

Run from the repository root. A spread above a third of its bound is marked
"wide"; above the bound, "FAIL". setup_s is reported but has no spread
bound (only its median is compared between two sets of runs).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for wl in args.workloads.split(","):
        values = {name: [] for name in bounds}
        shares = set()
        for i in range(args.runs):
            res = run_once(wl, args.first_seed + i, args.seconds, 0)
            ok = ok and res["correct"]
            shares.add((res["failed"], res["attempted"]) if res["failed"]
                       else 0)
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        print(f"{wl}: {args.runs} runs, failed share(s) {sorted(shares)}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            mark = ""
            if name != "setup_s":
                if spread > bounds[name]:
                    mark, ok = "FAIL", False
                elif spread > bounds[name] / 3:
                    mark = "wide"
            print(f"  {name:18s} median {med:12.6g}  spread {spread:7.3%}"
                  f"  bound {bounds[name]:.2f}  {mark}")
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
