#!/usr/bin/env bash
# The alternating parent/new protocol a gain-claiming PR has to run
# (choosing-metrics §8): exports <parent-ref> into target/pairs/parent,
# builds its keystone-perf and the working tree's (release, offline), runs N
# pairs of untraced runs per workload, alternating which side goes first,
# and prints per (workload, end-to-end metric) each side's median and
# quartiles over the N runs, the pairs the new side won, and a verdict
# against the bound in BENCHMARK.json. Result files stay under
# target/pairs/out/{parent,new}/<pair>/; `--summary` re-prints the table
# from them without running anything.
#
#   scripts/pairs.sh <parent-ref> [N=10] [--workload NAME] [--seed S] [--seconds S]
#   scripts/pairs.sh --summary
set -euo pipefail
cd "$(dirname "$0")/.."
unset CARGO_TARGET_DIR # one target directory per side

root=target/pairs

summary() {
    python3 - "$root/out" BENCHMARK.json <<'EOF'
import json, os, statistics, sys

out, spec = sys.argv[1], json.load(open(sys.argv[2]))

def runs(side, workload):
    """Result files of one side, by pair number."""
    found = {}
    for pair in os.listdir(os.path.join(out, side)):
        path = os.path.join(out, side, pair, workload + ".json")
        if os.path.exists(path):
            found[int(pair)] = json.load(open(path))
    return found

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return statistics.quantiles(values, n=4)

print(f"{'workload':<13} {'metric':<17} {'parent median [q1, q3]':>38} "
      f"{'new median [q1, q3]':>38} {'new/parent':>10} {'wins':>6}  verdict")
for workload in (w["name"] for w in spec["workloads"]):
    parent, new = runs("parent", workload), runs("new", workload)
    pairs = sorted(parent.keys() & new.keys())
    if not pairs:
        continue
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        p = [parent[i]["metrics"][name]["median"] for i in pairs]
        n = [new[i]["metrics"][name]["median"] for i in pairs]
        (p1, pm, p3), (n1, nm, n3) = quartiles(p), quartiles(n)
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, n))
        worse = sign * (pm - nm) / pm
        if all(sign * (b - a) > 0 for a in p for b in n):
            verdict = "better: every new run beats every parent run"
        elif (p3 - p1) / pm > bound:
            verdict = "unresolved: parent spread exceeds the bound"
        elif worse > bound:
            verdict = "REGRESSED"
        elif wins >= 0.9 * len(pairs) and sign * (nm - pm) > p3 - p1:
            verdict = "better"
        else:
            verdict = "within bound"
        print(f"{workload:<13} {name:<17} {pm:>14.6g} [{p1:>9.6g}, {p3:>9.6g}] "
              f"{nm:>14.6g} [{n1:>9.6g}, {n3:>9.6g}] {nm / pm:>10.3f} "
              f"{wins:>3}/{len(pairs):<2}  {verdict}")
    for side, found in (("parent", parent), ("new", new)):
        attempted = sum(found[i]["ops_attempted"] for i in pairs)
        failed = sum(found[i]["ops_failed"] for i in pairs)
        print(f"{workload:<13} {side}: {failed} of {attempted} operations failed")
EOF
}

if [ "${1:-}" = --summary ]; then
    summary
    exit
fi

parent=${1:?usage: scripts/pairs.sh <parent-ref> [N=10] [--workload NAME] [--seed S] [--seconds S]}
shift
pairs=10
if [[ "${1:-}" =~ ^[0-9]+$ ]]; then
    pairs=$1
    shift
fi
workloads=(text_sparse speech_dense chain_serve sweep_forest)
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads=("$2"); shift 2 ;;
        --seed|--seconds) pass+=("$1" "$2"); shift 2 ;;
        *) echo "unknown argument $1" >&2; exit 2 ;;
    esac
done

rm -rf "$root"
mkdir -p "$root/parent"
git archive "$parent" | tar -x -C "$root/parent"
cargo build --release --offline --manifest-path "$root/parent/perf/Cargo.toml"
cargo build --release --offline --manifest-path perf/Cargo.toml
parent_commit=$(git rev-parse "$parent")
new_commit="$(git rev-parse HEAD)+worktree"

run_side() { # side pair workload
    local bin=perf/target/release/keystone-perf commit=$new_commit
    if [ "$1" = parent ]; then
        bin=$root/parent/perf/target/release/keystone-perf commit=$parent_commit
    fi
    PERF_GIT_COMMIT=$commit "$bin" --workload "$3" --trace 0 --out "$root/out/$1/$2" \
        ${pass[@]+"${pass[@]}"} >/dev/null || status=1
}

status=0
for pair in $(seq 1 "$pairs"); do
    for workload in "${workloads[@]}"; do
        order=(parent new)
        if [ $((pair % 2)) -eq 0 ]; then order=(new parent); fi
        for side in "${order[@]}"; do
            run_side "$side" "$pair" "$workload"
        done
        echo "pair $pair/$pairs $workload done" >&2
    done
done
summary
exit $status
