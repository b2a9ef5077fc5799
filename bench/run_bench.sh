#!/usr/bin/env bash
# Runs the kernel-primitive microbenchmarks and writes BENCH_micro.json at the
# repo root, so the perf trajectory is tracked across PRs (compare against the
# numbers recorded in docs/PERFORMANCE.md).
#
# Usage:
#   bench/run_bench.sh [build_dir] [benchmark_filter]
#   bench/run_bench.sh --compare BASELINE.json [build_dir] [benchmark_filter]
#
# --compare mode additionally diffs the fresh results against BASELINE.json
# (bench/compare_bench.py) and exits non-zero if any gated benchmark
# (BM_TapBatch/512, BM_TapBatch/32768, BM_TapBatchTelemetry/32768,
# BM_DecaySparse/{4096,32768}, the giant-component worker-scaling cases
# BM_TapBatchGiant/taps:32768 at 1/2/4 workers, the chain-cutting cases
# BM_TapBatchChain/depth:{1024,8192} at 1/4 workers, the 20k-phone fleet
# BM_TapBatchFleet/phones:20000 at 1/4 workers, and the scheduler-plan cases
# BM_SchedPick/128 + BM_SimStepBatched/K:{1,16,64}) regressed by more than
# 20% — the cross-PR CI gate.
#
# Independent of --compare, every run whose filter covers both tap-batch
# benchmarks also runs the paired telemetry-overhead probe
# (micro_kernel_ops --telemetry_gate=...) and gates BM_TapBatchTelemetry/32768
# AND BM_TapBatchStreaming/32768 (full pipeline: ring flush -> file sink ->
# tmpfs) within 2% of BM_TapBatch/32768. The probe rotates the engines in
# ~25ms blocks inside one process — sequential benchmark timings drift by
# ±10% on shared runners and cannot resolve a 2% budget, the paired probe
# reproduces to well under 1%.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

baseline=""
if [[ "${1:-}" == "--compare" ]]; then
  baseline="${2:?--compare needs a baseline json path}"
  shift 2
  # The run below overwrites BENCH_micro.json, which is a valid baseline
  # path; snapshot it first.
  baseline_copy="$(mktemp)"
  cp "$baseline" "$baseline_copy"
  baseline="$baseline_copy"
fi

build_dir="${1:-$repo_root/build}"
filter="${2:-.}"

if [[ ! -x "$build_dir/micro_kernel_ops" ]]; then
  echo "building micro_kernel_ops in $build_dir ..." >&2
  cmake -B "$build_dir" -S "$repo_root" >&2
  cmake --build "$build_dir" --target micro_kernel_ops -j >&2
fi

"$build_dir/micro_kernel_ops" \
  --benchmark_filter="$filter" \
  --benchmark_format=json \
  --benchmark_out="$repo_root/BENCH_micro.json" \
  --benchmark_out_format=json

echo "wrote $repo_root/BENCH_micro.json" >&2

# Telemetry-overhead ratio gate, whenever the filter produced both sides.
if python3 - "$repo_root/BENCH_micro.json" <<'EOF'
import json, sys
names = {b["name"] for b in json.load(open(sys.argv[1])).get("benchmarks", [])}
sys.exit(0 if {"BM_TapBatch/32768", "BM_TapBatchTelemetry/32768"} <= names else 1)
EOF
then
  # Best of two probe runs: the paired estimator cancels drift but not
  # per-process allocator-layout luck (~±1%), so a single run of a true
  # ~0.5% overhead can still graze the 2% line. A genuine regression fails
  # both runs.
  gate_json="$(mktemp --suffix=.json)"
  gate_ok=0
  for attempt in 1 2; do
    "$build_dir/micro_kernel_ops" --telemetry_gate="$gate_json"
    if python3 "$repo_root/bench/compare_bench.py" \
      --current "$gate_json" \
      --relative-gate 'BM_TapBatchTelemetry/32768:BM_TapBatch/32768:0.02' \
      --relative-gate 'BM_TapBatchStreaming/32768:BM_TapBatch/32768:0.02'; then
      gate_ok=1
      break
    fi
    echo "telemetry gate attempt $attempt failed" >&2
  done
  rm -f "$gate_json"
  if [[ "$gate_ok" != 1 ]]; then
    echo "telemetry overhead gate failed on both attempts" >&2
    exit 1
  fi
fi

if [[ -n "$baseline" ]]; then
  # COMPARE_WARN_ONLY=1 reports gate violations without failing — for
  # baselines recorded on a different machine, where absolute times are not
  # comparable (e.g. CI falling back to the committed BENCH_micro.json).
  warn_flag=()
  if [[ "${COMPARE_WARN_ONLY:-0}" == "1" ]]; then
    warn_flag=(--warn-only)
  fi
  python3 "$repo_root/bench/compare_bench.py" \
    --baseline "$baseline" \
    --current "$repo_root/BENCH_micro.json" \
    --gate 'BM_TapBatch/512' \
    --gate 'BM_TapBatch/32768' \
    --gate 'BM_TapBatchTelemetry/32768' \
    --gate 'BM_TapBatchStreaming/32768' \
    --gate 'BM_DecaySparse/4096' \
    --gate 'BM_DecaySparse/32768' \
    --gate 'BM_TapBatchGiant/taps:32768/workers:1' \
    --gate 'BM_TapBatchGiant/taps:32768/workers:2' \
    --gate 'BM_TapBatchGiant/taps:32768/workers:4' \
    --gate 'BM_TapBatchChain/depth:1024/workers:1' \
    --gate 'BM_TapBatchChain/depth:1024/workers:4' \
    --gate 'BM_TapBatchChain/depth:8192/workers:1' \
    --gate 'BM_TapBatchChain/depth:8192/workers:4' \
    --gate 'BM_TapBatchFleet/phones:20000/workers:1' \
    --gate 'BM_TapBatchFleet/phones:20000/workers:4' \
    --gate 'BM_SchedPick/128' \
    --gate 'BM_SimStepBatched/K:1' \
    --gate 'BM_SimStepBatched/K:16' \
    --gate 'BM_SimStepBatched/K:64' \
    --max-regression 0.20 \
    "${warn_flag[@]}"
fi
