#!/usr/bin/env bash
# Same-machine before/after comparison on the repository benchmark.
#
#   ci/perfcmp.sh <workload> [K] [seed]
#
# Builds perfbench twice — from the base commit (by default the parent
# commit HEAD~1; see PERFCMP_BASE) and from the current checkout,
# uncommitted edits included — each into a target directory of its own,
# offline (every dependency is vendored). Then it runs the two builds K
# times each (default 10), alternating base/change in ABBA order so drift
# of the machine's speed falls on both sides alike, and prints, for every
# end-to-end metric in BENCHMARK.json: the median of each side, the
# interquartile range over the median of each side, the change/base ratio
# of the medians, and in how many of the K back-to-back pairs the change
# was better ("same" when every run of both sides gave the same value, as
# simulated metrics must). Each run lasts BENCHMARK.json's run_seconds.
#
# Environment:
#   PERFCMP_BASE  compare against the merge-base of HEAD and this ref
#                 instead of the parent commit (a branch: main;
#                 uncommitted edits only: HEAD)
#   PERFCMP_DIR   work directory (default .perfcmp in the repository)
#
# The base tree is exported with `git archive`, so no worktree is left
# registered. Raw per-run JSON lines stay in $PERFCMP_DIR/runs.
set -euo pipefail

usage="usage: ci/perfcmp.sh <em3d-1024|zipf-rw|scan-evict> [K] [seed]"
workload=${1:?$usage}
k=${2:-10}
seed=${3:-1996}

root=$(git rev-parse --show-toplevel)
work=${PERFCMP_DIR:-$root/.perfcmp}
if [[ -n ${PERFCMP_BASE:-} ]]; then
    base=$(git -C "$root" merge-base HEAD "$PERFCMP_BASE")
else
    base=$(git -C "$root" rev-parse HEAD~1)
fi
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")

mkdir -p "$work"
tree="$work/base-$base"
if [[ ! -d $tree ]]; then
    mkdir -p "$tree.tmp"
    git -C "$root" archive "$base" | tar -x -C "$tree.tmp"
    mv "$tree.tmp" "$tree"
fi
if [[ ! -f $tree/perfbench/Cargo.toml ]]; then
    echo "perfcmp: base $base has no perfbench/" >&2
    exit 1
fi

build() { # <source tree> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --quiet --offline \
        --manifest-path "$1/perfbench/Cargo.toml"
}
echo "perfcmp: building base $(git -C "$root" rev-parse --short "$base") and the checkout" >&2
build "$tree" "$work/target-base"
build "$root" "$work/target-head"

runs="$work/runs/$workload-$seed"
rm -rf "$runs"
mkdir -p "$runs"
run() { # <side> <round>
    local out="$runs/$1.$2"
    "$work/target-$1/release/perfbench" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 >"$out.txt" 2>"$out.err" ||
        { echo "perfcmp: $1 run $2 failed, see $out.err" >&2; exit 1; }
    tail -n 1 "$out.txt" >"$out.json"
}
for i in $(seq 1 "$k"); do
    echo "perfcmp: round $i/$k" >&2
    if ((i % 2)); then
        run base "$i"
        run head "$i"
    else
        run head "$i"
        run base "$i"
    fi
done

python3 - "$root/BENCHMARK.json" "$runs" "$k" "$workload" "$seed" <<'EOF'
import json, sys

spec_path, runs, k, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5]
metrics = json.load(open(spec_path))["end_to_end"]

def load(side):
    out = []
    for i in range(1, k + 1):
        line = json.load(open(f"{runs}/{side}.{i}.json"))
        if not line["correct"] or line["failed"]:
            sys.exit(f"perfcmp: {side} run {i} is not correct")
        out.append(line["metrics"])
    return out

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

def spread(xs):
    med = quantile(xs, 0.5)
    return med, (quantile(xs, 0.75) - quantile(xs, 0.25)) / med if med else 0.0

base, head = load("base"), load("head")
print(f"{workload} seed {seed}, {k} runs per side")
print(f"{'metric':<20} {'base':>14} {'(iqr)':>7} {'change':>14} {'(iqr)':>7} {'ratio':>7} {'better':>7}")
for m in metrics:
    name = m["name"]
    b = [r[name]["value"] for r in base if name in r]
    h = [r[name]["value"] for r in head if name in r]
    if len(b) != k or len(h) != k:
        print(f"{name:<20} {'(not reported)':>14}")
        continue
    bm, bs = spread(b)
    hm, hs = spread(h)
    ratio = hm / bm if bm else float("nan")
    lower = m["better"] == "lower"
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
    verdict = "same" if len(set(b + h)) == 1 else f"{wins}/{k}"
    print(f"{name:<20} {bm:>14.6g} {bs:>7.3f} {hm:>14.6g} {hs:>7.3f} {ratio:>7.3f} {verdict:>7}")
EOF
