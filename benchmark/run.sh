#!/usr/bin/env bash
# Builds the benchmark in release mode and runs workloads, each in its own
# process. Every run prints its metrics as `name value unit` lines, checks its
# outputs, and ends with one JSON line; see README.md.
#
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1   one run
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--traced] [--out DIR]
#                                   every workload (or W) untraced, then traced
#                                   too with --traced
#   benchmark/run.sh --smoke        every workload, both ways, at 1/50 size
#
# Exits non-zero if the build fails or any run reports a wrong output.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

workloads=(table4_trials longrun_station engine_fleet model_audit store_journal)
traces=(0)
pass=()
smoke=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads=("$2"); shift 2 ;;
        --trace) traces=("$2"); shift 2 ;;
        --traced) traces=(0 1); shift ;;
        --smoke) smoke=1; shift ;;
        --seed | --seconds | --out | --scale-div) pass+=("$1" "$2"); shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
bin="$target/release/rr-benchmark"

if [ "$smoke" = 1 ]; then
    # BENCHMARK.json is generated from the same tables the binary reports by.
    "$bin" --describe | diff - BENCHMARK.json >&2 \
        || { echo "run.sh: BENCHMARK.json differs from rr-benchmark --describe" >&2; exit 1; }
    traces=(0 1)
    pass+=(--scale-div 50 --seconds 0 --out benchmark/out/smoke)
fi

for workload in "${workloads[@]}"; do
    for trace in "${traces[@]}"; do
        "$bin" --workload "$workload" --trace "$trace" ${pass[@]+"${pass[@]}"}
    done
done
