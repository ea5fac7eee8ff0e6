#!/usr/bin/env bash
# The one command: builds keystone-perf (release, offline) and runs the
# workloads, one process each, untraced then traced. Every end-to-end and
# layer metric is printed by name with unit, median, MAD and n; result files
# go to perf/out/<workload>.json, <workload>.traced.json and
# <workload>.spans.json. Exits non-zero if any run fails a check.
#
#   perf/run.sh [--workload NAME] [--seed N] [--seconds S] [--out DIR]
#               [--traced | --untraced]
set -euo pipefail
cd "$(dirname "$0")/.."

workloads=(text_sparse speech_dense chain_serve sweep_forest)
traces=(0 1)
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads=("$2"); shift 2 ;;
        --traced) traces=(1); shift ;;
        --untraced) traces=(0); shift ;;
        --seed|--seconds|--out) pass+=("$1" "$2"); shift 2 ;;
        *) echo "unknown argument $1" >&2; exit 2 ;;
    esac
done

cargo build --release --offline --manifest-path perf/Cargo.toml
bin="${CARGO_TARGET_DIR:-perf/target}/release/keystone-perf"
PERF_GIT_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export PERF_GIT_COMMIT

status=0
for trace in "${traces[@]}"; do
    for workload in "${workloads[@]}"; do
        "$bin" --workload "$workload" --trace "$trace" ${pass[@]+"${pass[@]}"} || status=1
    done
done
exit $status
