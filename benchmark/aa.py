#!/usr/bin/env python3
"""A/A check: runs every workload under N seeds and prints, per end-to-end
metric, the median and the interquartile spread as a share of the median,
beside the bound BENCHMARK.json gives it. Run twice (or pass --sets 2) and
the medians of the two sets must agree within the bounds as well. For the
host times it also prints the spread they would have had as measured, that
is, multiplied back by the run's median host slowdown.

    python3 benchmark/aa.py [--runs 10] [--sets 1] [--workload name ...]
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--sets", type=int, default=1)
ap.add_argument("--workload", action="append")
args = ap.parse_args()


def iqr_share(xs):
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)


spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m for m in spec["end_to_end"]}
names = args.workload or [w["name"] for w in spec["workloads"]]
ok = True
for w in names:
    medians = []
    for s in range(args.sets):
        vals, slow, wall = {m: [] for m in bounds}, [], time.time()
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                ok = False
                print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']}", flush=True)
            for m in bounds:
                vals[m].append(res["metrics"][m]["value"])
            slow.append(float(re.search(r"^host slowdown quartiles \S+ (\S+)", out.stdout, re.M).group(1)))
        print(f"{w} set {s + 1}: {args.runs} runs in {time.time() - wall:.0f} s", flush=True)
        med = {}
        for m, xs in vals.items():
            med[m], spread = statistics.median(xs), iqr_share(xs)
            flag = "" if m == "setup_s" or spread <= bounds[m]["bound"] / 3 else "  <-- above a third of the bound"
            if m != "setup_s" and spread > bounds[m]["bound"]:
                ok = False
            raw = ""
            if m != "host_heap_mb":
                as_measured = [x / f if m == "ops_per_s" else x * f for x, f in zip(xs, slow)]
                raw = f"  as measured {iqr_share(as_measured):6.3f}"
            print(f"  {m:14s} median {med[m]:12.6g}  spread {spread:6.3f}{raw}  bound {bounds[m]['bound']}{flag}", flush=True)
        print(f"  host slowdown  median {statistics.median(slow):12.6g}  spread {iqr_share(slow):6.3f}", flush=True)
        medians.append(med)
    for m in bounds:
        if len(medians) == 2:
            a, b = medians[0][m], medians[1][m]
            worse = (b - a) / a if bounds[m]["better"] == "lower" else (a - b) / a
            if worse > bounds[m]["bound"]:
                ok = False
            print(f"  {m:14s} set 2 worse than set 1 by {worse:+.3f} (bound {bounds[m]['bound']})", flush=True)
sys.exit(0 if ok else 1)
