#!/usr/bin/env python3
"""Runs run.py once per seed and reports each metric's spread.

    python3 campaign_bench/spread.py --workloads web_curl --seeds 1-10 \
        [--seconds 30] [--trace 0] [--out FILE]

For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread: the distance between
the quartiles as a share of the median. With --out it also writes the
runs and the summary as JSON. Runs go one at a time, never in parallel.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=HERE.parent)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed")
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="bulk_download,web_curl,"
                   "faulted_reliability")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        runs = {}
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: output check failed")
            runs[seed] = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.5g}" for k, v in runs[seed].items()), flush=True)
        names = next(iter(runs.values())).keys()
        summary = {}
        if len(runs) >= 2:
            for name in names:
                summary[name] = summarize([r[name] for r in runs.values()])
                s = summary[name]
                print(f"  {workload} {name}: median {s['median']:.5g} "
                      f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} "
                      f"spread {s['spread']:.4f}", flush=True)
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
