#!/usr/bin/env bash
# The A/A check: runs the whole untraced set twice on the same build and
# compares, for every (end-to-end metric, workload) pair, the two medians
# against the metric's bound in BENCHMARK.json. Prints `agree` or
# `unresolved` per pair; exits non-zero on any `unresolved`.
#
#   perf/agree.sh [--seed N] [--seconds S]
set -euo pipefail
cd "$(dirname "$0")/.."

perf/run.sh --untraced --out perf/out/agree_a "$@"
perf/run.sh --untraced --out perf/out/agree_b "$@"
"${CARGO_TARGET_DIR:-perf/target}/release/keystone-perf" \
    --agree perf/out/agree_a perf/out/agree_b --bounds BENCHMARK.json
