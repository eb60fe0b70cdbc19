#!/usr/bin/env bash
# Micro-benchmark gate for the zero-copy cell pipeline: runs bench_micro,
# condenses the google-benchmark JSON to per-benchmark medians, and diffs
# them against the checked-in bench/baseline.json. A benchmark that got
# slower than baseline by more than the tolerance band fails the run, and
# so does a baseline entry missing from the run; a benchmark absent from
# the baseline is recorded, not gated (new benchmarks enter the baseline
# deliberately, via --write-baseline).
#
#   tools/bench_check.sh [--record] [--out <file>] [--repetitions N]
#                        [--write-baseline]
#
# The run's context (the SHA-256 and ChaCha20 kernels bench_micro ran,
# which move BM_Sha256 several-fold between hosts with and without SHA
# extensions, and BM_ChaCha20 between 4-, 8- and 16-lane keystreams) is
# printed first and copied into the condensed run.
#
# --record appends the condensed run to bench/BENCH_micro.json (the
# checked-in perf trajectory; see docs/PERFORMANCE.md) instead of writing
# the default ./BENCH_micro.json CI artifact. The checked-in file is a
# per-PR series ("ptperf-bench-series-v1"): one entry per recorded run,
# labelled by commit, oldest first — a legacy single-run file is wrapped
# as the series' first entry on the next --record. --write-baseline
# regenerates bench/baseline.json from this run — review the diff before
# committing.
#
# Environment: BENCH_BIN (default ./build/bench/bench_micro),
# BENCH_TOLERANCE (regression band as a fraction, default 0.5 — wide on
# purpose: shared CI runners jitter, and the gate exists to catch the
# 2x-copy-crept-back class of regression, not 5% noise).
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

out="BENCH_micro.json"
series=0
repetitions=3
write_baseline=0
while [ $# -gt 0 ]; do
  case "$1" in
    --record) out="bench/BENCH_micro.json"; series=1; shift ;;
    --out) out="$2"; shift 2 ;;
    --repetitions) repetitions="$2"; shift 2 ;;
    --write-baseline) write_baseline=1; shift ;;
    *)
      echo "usage: tools/bench_check.sh [--record] [--out <file>]" \
           "[--repetitions N] [--write-baseline]" >&2
      exit 2
      ;;
  esac
done

bin="${BENCH_BIN:-./build/bench/bench_micro}"
if [ ! -x "$bin" ]; then
  echo "bench_check: $bin not built (cmake --build build --target bench_micro)" >&2
  exit 2
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
"$bin" --benchmark_format=json --benchmark_repetitions="$repetitions" \
  --benchmark_out="$raw" --benchmark_out_format=json >/dev/null

label="$(git rev-parse --short HEAD 2>/dev/null || echo unversioned)"

OUT="$out" RAW="$raw" TOL="${BENCH_TOLERANCE:-0.5}" \
WRITE_BASELINE="$write_baseline" SERIES="$series" LABEL="$label" \
python3 - <<'PY'
import json, os, sys

raw = json.load(open(os.environ["RAW"]))
tol = float(os.environ["TOL"])
out_path = os.environ["OUT"]

context = {k: raw["context"].get(k, "unknown")
           for k in ("sha256_kernel", "chacha20_kernel")}
print("context: " + " ".join(f"{k}={v}" for k, v in context.items()))

# Median real_time per benchmark family (repetitions=1 emits no aggregates,
# so fall back to the single sample).
run = {}
for b in raw["benchmarks"]:
    name, kind = b["name"], b.get("aggregate_name", "")
    if kind == "median":
        base = name[: -len("_median")]
    elif kind == "" and b.get("run_type", "iteration") == "iteration":
        base = name
        if base in run:
            continue  # keep the first sample only when no aggregates exist
    else:
        continue
    entry = {"ns": round(b["real_time"], 1)}
    if "bytes_per_second" in b:
        entry["bytes_per_second"] = round(b["bytes_per_second"])
    run[base] = entry
# Aggregates win over first-sample fallbacks.
for b in raw["benchmarks"]:
    if b.get("aggregate_name") == "median":
        base = b["name"][: -len("_median")]
        entry = {"ns": round(b["real_time"], 1)}
        if "bytes_per_second" in b:
            entry["bytes_per_second"] = round(b["bytes_per_second"])
        run[base] = entry

baseline_doc = json.load(open("bench/baseline.json"))
baseline = baseline_doc["benchmarks"]

failures = []
for name, entry in sorted(run.items()):
    base = baseline.get(name)
    if base is None:
        print(f"  NEW       {name:42s} {entry['ns']:>12.1f} ns (recorded, not gated)")
        continue
    ratio = entry["ns"] / base["ns"]
    status = "ok"
    if ratio > 1.0 + tol:
        status = "REGRESSED"
        failures.append(f"{name}: {base['ns']:.1f} -> {entry['ns']:.1f} ns (x{ratio:.2f} > 1+{tol})")
    print(f"  {status:9s} {name:42s} {base['ns']:>12.1f} -> {entry['ns']:>12.1f} ns ({(ratio - 1) * 100:+6.1f}%)")
for name in sorted(set(baseline) - set(run)):
    print(f"  GONE      {name:42s} (in baseline, not in this run)")
    failures.append(f"{name}: in baseline, not in this run (prune it from bench/baseline.json deliberately)")

doc = {
    "schema": "ptperf-bench-run-v1",
    "source": "tools/bench_check.sh: bench_micro median real_time per repetition set",
    "context": context,
    "benchmarks": run,
}
if os.environ["SERIES"] == "1":
    # The checked-in trajectory is a per-PR series: one condensed entry per
    # recorded run, oldest first. A pre-series single-run file becomes the
    # series' first entry (labelled "pre-series" — its commit is unknown).
    entry = {
        "label": os.environ["LABEL"],
        "context": context,
        "benchmarks": run,
    }
    runs = []
    if os.path.exists(out_path):
        prior = json.load(open(out_path))
        if prior.get("schema") == "ptperf-bench-series-v1":
            runs = prior["runs"]
        elif "benchmarks" in prior:
            runs = [{
                "label": "pre-series",
                "benchmarks": prior["benchmarks"],
                "trajectory": prior.get("trajectory", []),
            }]
    if runs and runs[-1]["label"] == entry["label"]:
        runs[-1] = entry  # re-recording the same commit updates in place
    else:
        runs.append(entry)
    doc = {
        "schema": "ptperf-bench-series-v1",
        "source": "tools/bench_check.sh --record: one entry per recorded run, oldest first",
        "runs": runs,
    }
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
if os.environ["SERIES"] == "1":
    print(f"\nwrote {out_path} ({len(doc['runs'])} series entries; this run: {len(run)} benchmarks)")
else:
    print(f"\nwrote {out_path} ({len(run)} benchmarks)")

if os.environ["WRITE_BASELINE"] == "1":
    baseline_doc["benchmarks"] = run
    baseline_doc["source"] = "tools/bench_check.sh --write-baseline"
    with open("bench/baseline.json", "w") as f:
        json.dump(baseline_doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print("rewrote bench/baseline.json — review the diff")

if failures:
    print("\nbench_check FAILED:", file=sys.stderr)
    for f_ in failures:
        print(f"  {f_}", file=sys.stderr)
    sys.exit(1)
print("bench_check: ok")
PY
