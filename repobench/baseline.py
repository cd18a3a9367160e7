#!/usr/bin/env python3
"""Measure the benchmark's baseline: every workload over several seeds.

    python3 repobench/baseline.py [--seeds 101-110] [--workloads a,b]
                                  [--out repobench/BASELINE.json]

Run from the root of a source checkout. For each workload the script
runs `run.py --trace 0` once per seed, one run at a time, then records
each end-to-end metric's median, quartiles and spread (the distance
between the quartiles over the median, from statistics.quantiles with
n=4), together with the host's core count and SIMD backend. It prints
one line per run and a table that compares every spread with the
metric's bound in BENCHMARK.json; it exits non-zero if a run fails or
reports incorrect outputs.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="101-110")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", default=os.path.join(HERE, "BASELINE.json"))
    args = ap.parse_args()

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    host = {"cores": os.cpu_count(), "simd": None}
    workloads = {}
    ok = True
    for name in args.workloads.split(","):
        values = {}
        for seed in seeds:
            t0 = time.time()
            res = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = res.stdout.strip().split("\n")
            if res.returncode != 0:
                print(f"{name} seed {seed}: run failed", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            simd = re.search(r"simd (\S+),", lines[0])
            if simd:
                host["simd"] = simd.group(1)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{name} seed {seed} ({time.time() - t0:.1f} s): "
                  + ", ".join(f"{k} {v['value']:.4g}"
                              for k, v in result["metrics"].items()),
                  flush=True)
        stats = {}
        for k, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            stats[k] = {"unit": units[k], "median": med, "q1": q1, "q3": q3,
                        "spread": (q3 - q1) / med, "runs": len(v)}
        workloads[name] = stats

    print(f"\n{'workload':18s} {'metric':18s} {'median':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name, stats in workloads.items():
        for k, s in stats.items():
            flag = ""
            if k != "setup_s" and s["spread"] > bounds[k]:
                flag = "  over bound"
            elif s["spread"] > bounds[k] / 3:
                flag = "  over bound/3"
            print(f"{name:18s} {k:18s} {s['median']:12.5g} "
                  f"{s['spread']:7.3f} {bounds[k]:6.2f}{flag}")

    with open(args.out, "w") as f:
        json.dump({"run_seconds": spec["run_seconds"], "seeds": seeds,
                   "host": host, "workloads": workloads}, f, indent=2)
        f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
