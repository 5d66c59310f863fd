#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload churn_k8 --seeds 1-10 [--seconds 30] [--trace 0]

For every metric it prints the median over the runs and the distance
between the first and third quartile as a share of the median, which is
how the benchmark's bounds are checked. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        command = json.load(f)["command"]
    values = {}
    for seed in seed_list(args.seeds):
        out = subprocess.run(
            command + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", args.trace],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result")
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        share = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:40s} median={med:.6g} iqr/median={share:.4f}")


if __name__ == "__main__":
    main()
