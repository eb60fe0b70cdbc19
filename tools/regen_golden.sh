#!/usr/bin/env bash
# Regenerates the golden-figure CSVs under tests/golden/ from the current
# build. Run after an intentional change to sampling, statistics, or the
# simulation model, then commit the diff alongside the change — the golden
# suites (tests/golden_figures_test.cc, tests/ensemble_test.cc)
# byte-compare against these files.
#
# Usage: tools/regen_golden.sh [build-dir]   (default: build)
#
# Two phases:
#   1. Base goldens at --repeats 1 (the pre-ensemble behaviour) for every
#      figure and table bench, including fig10a's population-emitted
#      timeline, fig12's weekly boxes, and both fig12 modes at --seed 2.
#      Before replacing anything, each output is diffed against the
#      checked-in golden: a drift means the single-run pipeline changed,
#      which the ensemble layer alone must never do. The script aborts
#      on drift unless ALLOW_DRIFT=1 acknowledges an intentional model
#      change.
#   2. Ensemble goldens from --repeats 3 --jobs 2 (fig2a, fig2b, fig5,
#      fig6, fig8, fig9, fig10), regenerated from the base-verified build.
#
# Flags here must match the test files exactly. `#` comment lines
# (seed/jobs/wall_s) are stripped: wall-clock is outside the determinism
# contract.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-build}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

DRIFTED=0

# Phase 1: base goldens, pinned to --repeats 1. Verify before replacing.
# One bench invocation can own several goldens: arguments starting with
# `--` are bench flags (consumed with their value), everything else is a
# CSV the run produced.
BASE_CSVS=()
# stage_base <produced csv> <golden name>: drift-checks one run's CSV
# against its golden and stages it for replacement.
stage_base() {
  local produced="$1" golden="$2"
  grep -v '^#' "$produced" > "$TMP/new_$golden"
  if [ -f "$ROOT/tests/golden/$golden" ] && \
     ! cmp -s "$TMP/new_$golden" "$ROOT/tests/golden/$golden"; then
    echo "DRIFT: tests/golden/$golden no longer matches a --repeats 1 run" >&2
    diff -u "$ROOT/tests/golden/$golden" "$TMP/new_$golden" >&2 || true
    DRIFTED=1
  fi
  cp "$TMP/new_$golden" "$TMP/stage_$golden"
  BASE_CSVS+=("$golden")
}
run_base() {
  local bench="$1"
  shift
  local flags=() csvs=()
  while [ "$#" -gt 0 ]; do
    case "$1" in
      --*) flags+=("$1" "$2"); shift 2 ;;
      *) csvs+=("$1"); shift ;;
    esac
  done
  "$ROOT/$BUILD/bench/$bench" --scale 0.05 --seed 1 --jobs 2 --repeats 1 \
    --out "$TMP" "${flags[@]}" > /dev/null
  local csv
  for csv in "${csvs[@]}"; do
    stage_base "$TMP/$csv" "$csv"
  done
}
# fig12 at --seed 2, both modes, against *_seed2.csv goldens
# (GoldenFigures.Fig12*FollowsTheSeed): the fleet's default seed is the
# other goldens' seed 1, so only another seed pins fig12's override.
run_fig12_seed2() {
  local csv="$1"
  shift
  mkdir -p "$TMP/seed2"
  "$ROOT/$BUILD/bench/bench_fig12_snowflake_monitor" --scale 0.05 --seed 2 \
    --jobs 2 --repeats 1 --out "$TMP/seed2" "$@" > /dev/null
  stage_base "$TMP/seed2/$csv" "${csv%.csv}_seed2.csv"
}

run_base bench_fig2a_website_curl fig2a_boxes.csv
run_base bench_fig2b_website_selenium fig2b_boxes.csv
run_base bench_fig5_file_download fig5_times.csv
run_base bench_fig6_ttfb fig6_ttfb_ecdf.csv
run_base bench_fig8_reliability fig8a_outcomes.csv --faults paper --retries 1
run_base bench_fig9_overhead fig9_overhead.csv
run_base bench_fig10_snowflake_load fig10a_timeline.csv fig10b_boxes.csv
run_base bench_fig12_snowflake_monitor fig12_weekly.csv
run_fig12_seed2 fig12_weekly.csv
run_fig12_seed2 fig12_monitor.csv --monitor
run_base bench_fig3_fixed_circuit fig3a_boxes.csv fig3a_ttests.csv \
  fig3b_ecdf.csv
run_base bench_fig4_fixed_guard fig4_per_site.csv fig4_boxes.csv
run_base bench_fig7_location fig7_location.csv fig7_summary.csv
run_base bench_fig11_speed_index fig11_speed_index.csv fig11_vs_load.csv \
  fig11_ttests.csv
run_base bench_table1_overview table1_overview.csv
run_base bench_table2_inventory table2_inventory.csv
run_base bench_table10_categories table10_means.csv table10_ttests.csv
run_base bench_medium_change medium_change.csv
run_base bench_ablations ablation_guard_load.csv ablation_dnstt_cap.csv \
  ablation_camoufler_rate.csv ablation_snowflake_churn.csv
run_base bench_streaming streaming_quality.csv
run_base bench_appendix_ting ting_relay_pairs.csv ting_pt_limitation.csv
run_base bench_hop_decomposition hop_decomposition.csv

if [ "$DRIFTED" -ne 0 ] && [ "${ALLOW_DRIFT:-0}" != "1" ]; then
  echo "" >&2
  echo "Base goldens drifted. If the simulation/statistics change is" >&2
  echo "intentional, re-run with ALLOW_DRIFT=1 to accept the new base" >&2
  echo "goldens; otherwise fix the regression first." >&2
  exit 1
fi

for csv in "${BASE_CSVS[@]}"; do
  cp "$TMP/stage_$csv" "$ROOT/tests/golden/$csv"
  echo "regenerated tests/golden/$csv"
done

# Phase 2: ensemble goldens at --repeats 3 (checked by the EnsembleGolden
# suites in tests/ensemble_test.cc). Phase 1 already verified that the
# --repeats 1 path is byte-identical for these benches, so the ensemble
# tables regenerate from a base-verified build.
run_ensemble() {
  local bench="$1"
  shift
  # Arguments starting with -- are extra bench flags (consumed with their
  # value); everything else is a CSV to regenerate.
  local flags=() csvs=()
  while [ "$#" -gt 0 ]; do
    case "$1" in
      --*) flags+=("$1" "$2"); shift 2 ;;
      *) csvs+=("$1"); shift ;;
    esac
  done
  "$ROOT/$BUILD/bench/$bench" --scale 0.05 --seed 1 --jobs 2 --repeats 3 \
    --out "$TMP" "${flags[@]}" > /dev/null
  for csv in "${csvs[@]}"; do
    grep -v '^#' "$TMP/$csv" > "$ROOT/tests/golden/$csv"
    echo "regenerated tests/golden/$csv"
  done
}

run_ensemble bench_fig2a_website_curl fig2a_ensemble.csv \
  fig2a_ensemble_paired.csv
run_ensemble bench_fig2b_website_selenium fig2b_ensemble.csv \
  fig2b_ensemble_paired.csv
run_ensemble bench_fig5_file_download fig5_ensemble.csv \
  fig5_ensemble_paired.csv
run_ensemble bench_fig6_ttfb fig6_ensemble.csv fig6_ensemble_paired.csv
run_ensemble bench_fig8_reliability --faults paper --retries 1 \
  fig8_ensemble.csv fig8_ensemble_paired.csv
run_ensemble bench_fig9_overhead fig9_ensemble.csv fig9_ensemble_paired.csv
run_ensemble bench_fig10_snowflake_load fig10_ensemble.csv \
  fig10_ensemble_paired.csv
