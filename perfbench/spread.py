#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and alternating A/B pairs.

Spread of one tree (from the repository root):

    python3 perfbench/spread.py --workload dht_proc --seeds 1-10 --seconds 10

runs `perfbench/run.py` once per seed and prints, per metric, the median
and the interquartile distance as a share of the median (quartiles as
`statistics.quantiles(values, n=4)` gives them), next to the metric's bound
from BENCHMARK.json.

A/B pairs of two checkouts of the same benchmark:

    python3 perfbench/spread.py --workload dht_proc --seeds 1-10 --seconds 10 \\
        --ab <parent checkout> <change checkout>

runs each seed on both checkouts, alternating which side goes first, and
prints both sides' medians and quartiles and how many pairs each side won.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(root, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{root}: seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    r = json.loads(out.stdout.strip().splitlines()[-1])
    if not r["correct"]:
        print(f"{root}: seed {seed}: NOT CORRECT ({r['failed']} of {r['attempted']} failed)")
    return {k: v["value"] for k, v in r["metrics"].items()}


def summary(vals):
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--ab", nargs=2, metavar=("PARENT", "CHANGE"))
    a = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sides = a.ab or [os.path.join(HERE, "..")]
    runs = {s: [] for s in sides}
    for i, seed in enumerate(seeds(a.seeds)):
        order = sides if i % 2 == 0 else sides[::-1]
        for side in order:
            runs[side].append(run(side, a.workload, seed, seconds, a.trace))
            print(f"seed {seed} {side}: " + json.dumps(runs[side][-1]), flush=True)
    names = list(runs[sides[0]][0])
    for name in names:
        b = bounds.get(name, {})
        line = f"{name:34s} bound {b.get('bound', '-')!s:>5}"
        for side in sides:
            med, q1, q3, spread = summary([r[name] for r in runs[side]])
            line += f" | median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}"
        if a.ab:
            lower = b.get("better", "lower") == "lower"
            wins = sum((c[name] < p[name]) == lower and c[name] != p[name]
                       for p, c in zip(runs[sides[0]], runs[sides[1]]))
            line += f" | change wins {wins}/{len(runs[sides[0]])}"
        print(line)


if __name__ == "__main__":
    main()
