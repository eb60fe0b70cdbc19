#!/usr/bin/env python3
"""Campaign benchmark: one figure campaign per process, timed end to end.

Usage, from the repository root:

    python3 campaign_bench/run.py --workload bulk_download --seed 1 \
        --seconds 30 --trace 0

Builds the simulator and the benchmark binary from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs the workload's campaign repeatedly
for --seconds, checks the merged samples' hash against reference.json, and
prints the run's inputs as '#' lines followed by one JSON result line.
--trace 0 reports the end-to-end metrics; --trace 1 runs the traced and
replayed campaign and reports the per-layer metrics. README.md describes
the workloads, the metrics and the output check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("bulk_download", "web_curl", "faulted_reliability")

# End-to-end metrics in the result line (BENCHMARK.json lists the same).
# The others are printed as '#' lines only; README.md says why they
# are too seed- or noise-bound to gate.
GATED = ("wall_s", "setup_s", "payload_mb_per_s")

RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "campaign_bench"


def build():
    """Configures and builds the binary; returns its path or None."""
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out)] + generator +
                     ["-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("error: build failed: " + " ".join(cmd))
            return None
    binary = out / "campaign_bench"
    return binary if binary.exists() else None


def load_reference(path):
    with open(path) as f:
        return json.load(f)


def run_binary(binary, mode, args):
    cmd = [str(binary), mode, "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: campaign_bench timed out")
        return None, []
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"error: campaign_bench exited with {proc.returncode}")
        return None, lines
    try:
        return json.loads(lines[-1]), lines[:-1]
    except ValueError:
        log("error: campaign_bench printed no result line")
        return None, lines


def output_check(result, args, reference):
    """Returns a list of failed checks (empty when the output is right)."""
    failures = []
    hashes = {"engine": result["hash"]}
    if result["mode"] == "trace":
        hashes["traced"] = result["traced_hash"]
        hashes["replay"] = result["replay_hash"]
        for name, ok in result["checks"].items():
            if not ok:
                failures.append(name)
    if not result["hashes_agree"]:
        failures.append("repeated campaigns gave different samples")
    if len(set(hashes.values())) != 1:
        failures.append("sample hashes differ: " + json.dumps(hashes))
    expected = reference.get(args.workload, {}).get(str(args.seed))
    if expected is None:
        print(f"# reference: none recorded for seed {args.seed}; checked "
              "that every campaign of the run gave the same samples")
    else:
        print(f"# reference: {expected} (recorded for seed {args.seed})")
        if result["hash"] != expected:
            failures.append(f"hash {result['hash']} != reference {expected}")
    if result["attempts"] < 1 or result["samples"] < 1:
        failures.append("campaign produced no samples")
    return failures


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", default=str(REFERENCE),
                   help="reference hashes (default: reference.json here)")
    args = p.parse_args()

    binary = build()
    if binary is None:
        return 1
    result, header = run_binary(binary, "trace" if args.trace else "run",
                                args)
    for line in header:
        print(line)
    if result is None:
        return 1

    failures = output_check(result, args, load_reference(args.reference))
    correct = not failures
    metrics = result["metrics"]
    print(f"# output hash: {result['hash']}; samples {result['samples']}; "
          f"attempts {result['attempts']} "
          f"(failed {result['failed_attempts']})")
    if args.trace == 0:
        if not correct:
            metrics["fail_frac"]["value"] = 1.0
        for name, m in metrics.items():
            note = "" if name in GATED else " (not gated)"
            print(f"# {name}: {m['value']:.6g} {m['unit']}{note}")
        metrics = {k: metrics[k] for k in GATED}
    for f in failures:
        print(f"# output check FAILED: {f}")
    campaigns = result["campaigns"]
    print(json.dumps({"correct": correct, "attempted": campaigns,
                      "failed": 0 if correct else campaigns,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
