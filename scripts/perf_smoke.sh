#!/usr/bin/env bash
# The cross-commit perf gate: a short traced perf/ run (2 s, seed 7) of the
# three workloads that carry the optimizations' measured speedup ratios,
# each ratio held to a fixed limit. The limits are floors against losing an
# optimization outright (fusion silently off reads ~1.0), not tight bounds;
# per-PR regressions are scripts/pairs.sh's job. Prints every gated value
# with its limit and exits non-zero if one misses, a result file is absent,
# or a run is not `correct` or failed an operation. `--check DIR` checks an
# existing result directory without running anything.
#
#   scripts/perf_smoke.sh               run into target/perf-smoke, then check
#   scripts/perf_smoke.sh --check DIR   check DIR/<workload>.traced.json
set -euo pipefail
cd "$(dirname "$0")/.."

check() {
    python3 - "$1" <<'EOF'
import json, math, os, sys

out = sys.argv[1]
# (workload, metric, comparison, limit)
GATES = [
    ("chain_serve", "executor.fusion_speedup", ">=", 1.5),
    ("chain_serve", "executor.columnar_speedup", ">=", 1.2),
    ("chain_serve", "serve.batch_speedup", ">=", 4.0),
    # A 2-partition wave against a 1-partition one: 2.7-4.4 while every
    # multi-chunk region spawned its threads, ~1.0-1.3 on the pool.
    ("chain_serve", "serve.partition_penalty", "<=", 2.0),
    # A tiny region's fixed cost: 36-50 us spawning scoped threads, ~1 us
    # when the caller finishes it before a parked worker wakes.
    ("chain_serve", "dataflow.region_fixed_us", "<=", 10.0),
    # An identity node's executor overhead (2 vCPUs): ~17 us when every
    # region re-read the CPU count, 1.5-1.9 us with it read once per process.
    ("chain_serve", "executor.node_overhead_us", "<=", 5.0),
    # Tracer events + metric spans the apply_one context holds per call: 5
    # while every apply also probed a nothing-admitted cache, 3 while a node
    # run wrote a start and an end event, 2 with one event per node run, 0
    # since an apply no window covers stores no node-run rows.
    ("chain_serve", "executor.ctx_events_per_call", "<=", 0.0),
    ("text_sparse", "optimizer.mat_speedup", ">=", 2.0),
    ("sweep_forest", "optimizer.forest_vs_solo_wall", "<=", 0.7),
]

failed = 0
def report(workload, name, value, limit, ok):
    global failed
    failed += not ok
    print(f"{workload:<13} {name:<32} {value:>10} {limit:>14}  {'ok' if ok else 'FAIL'}")

def median(doc, name):
    v = doc["metrics"].get(name, {}).get("median")
    return v if isinstance(v, (int, float)) and math.isfinite(v) else None

def shown(v):
    return "null" if v is None else f"{v:.3g}"

print(f"{'workload':<13} {'metric':<32} {'value':>10} {'limit':>14}  verdict")
for workload in dict.fromkeys(w for w, *_ in GATES):
    path = os.path.join(out, workload + ".traced.json")
    if not os.path.exists(path):
        report(workload, "result file", "missing", "present", False)
        continue
    doc = json.load(open(path))
    report(workload, "correct", str(doc["correct"]).lower(), "true", doc["correct"] is True)
    report(workload, "ops_failed", f"{doc['ops_failed']:g}", "0", doc["ops_failed"] == 0)
    for w, name, cmp, limit in GATES:
        if w == workload:
            v = median(doc, name)
            ok = v is not None and (v >= limit if cmp == ">=" else v <= limit)
            report(workload, name, shown(v), f"{cmp} {limit:g}", ok)
    if workload == "sweep_forest":
        # The simulated and wall clocks must agree that sharing wins.
        sim = median(doc, "optimizer.forest_sim_speedup")
        wall = median(doc, "optimizer.forest_vs_solo_wall")
        ok = sim is not None and wall is not None and (sim <= 1 or wall < 1)
        report(workload, "forest_vs_solo_wall if sim > 1", shown(wall),
               f"< 1 (sim {shown(sim)})", ok)

print(f"perf smoke: {'FAIL' if failed else 'PASS'} ({failed} check(s) failed)")
sys.exit(1 if failed else 0)
EOF
}

if [ "${1:-}" = --check ]; then
    check "${2:?usage: scripts/perf_smoke.sh --check DIR}"
    exit
fi

out=target/perf-smoke
rm -rf "$out"
status=0
for workload in chain_serve text_sparse sweep_forest; do
    perf/run.sh --workload "$workload" --traced --seconds 2 --seed 7 --out "$out" || status=1
done
check "$out" || status=1
exit $status
