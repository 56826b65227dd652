#!/usr/bin/env bash
# Alternating parent/change pairs of one perfbench workload (the method
# of EXPERIMENTS.md and the choosing-metrics guide, section 8).
#
#   scripts/bench_pairs.sh <parent> <change> <workload> [pairs=10] [metrics]
#
# Each side is a commit-ish, checked out as a git worktree under
# target/pairs/, or an existing directory (an uncommitted work tree),
# used in place. Both are built offline, each into its own target
# directory, and the change's perfbench/ and BENCHMARK.json must be
# byte-identical to the parent's: the benchmark is the instrument, a
# gain measured with a different one is no gain. Which side runs first
# alternates from pair to pair. Prints every run, each side's failed
# operations next to its median operations attempted per run (on
# serve-* the sessions run, which rss_peak_mb follows), then
# per end-to-end metric each side's median and quartiles and the pairs
# won.
#
# Pair i runs both sides with seed SEED+i (SEED defaults to 100, so
# seeds 101, 102, …: not the seed 1 of development). SECONDS_PER_RUN
# overrides the run length (default: BENCHMARK.json's run_seconds).
#
# `metrics` is a comma-separated list of per-layer metric names, such as
# check.linear_us,passes.reuse_us: the layer a change touched. When it
# is given, three traced alternating pairs (--trace 1, seeds 201-203)
# follow, and each named metric's median per side is printed.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,26p' "$0" >&2
    exit 2
fi
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
workload=$3
pairs=${4:-10}
layer_metrics=${5:-}
seed_base=${SEED:-100}
pairs_dir=$root/target/pairs
mkdir -p "$pairs_dir"

# Prints the directory holding side $1 (parent|change) at $2.
checkout() {
    if [ -d "$2" ]; then
        (cd "$2" && pwd)
        return
    fi
    local dir=$pairs_dir/$1
    if [ -e "$dir" ]; then
        git -C "$root" worktree remove --force "$dir" >&2
    fi
    git -C "$root" worktree add --detach "$dir" "$2" >&2
    echo "$dir"
}

parent=$(checkout parent "$1")
change=$(checkout change "$2")

if ! diff -r --exclude target --exclude out "$parent/perfbench" "$change/perfbench" >&2 ||
    ! cmp "$parent/BENCHMARK.json" "$change/BENCHMARK.json" >&2; then
    echo "bench_pairs: the two sides do not carry the same benchmark" >&2
    exit 1
fi
seconds=${SECONDS_PER_RUN:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$parent/BENCHMARK.json")}

for side in parent change; do
    dir=${!side}
    echo "building $side ($dir)" >&2
    (cd "$dir" && CARGO_TARGET_DIR=$pairs_dir/$side-target \
        cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
done

runs=$pairs_dir/$workload.runs
traced=$pairs_dir/$workload.traced
: >"$runs"
# One run of side $1 with seed $2 and --trace $3; appends
# "<side> <result json>" to file $4.
run() {
    local dir=${!1}
    local line
    line=$(cd "$dir" && "$pairs_dir/$1-target/release/perfbench" \
        --workload "$workload" --seed "$2" --seconds "$seconds" --trace "$3" | tail -n 1)
    echo "$1 $line" | tee -a "$4"
}
# Pair $1 with seed $2, --trace $3, into file $4; odd pairs run the
# parent first.
pair() {
    if [ $(($1 % 2)) -eq 1 ]; then
        run parent "$2" "$3" "$4"
        run change "$2" "$3" "$4"
    else
        run change "$2" "$3" "$4"
        run parent "$2" "$3" "$4"
    fi
}
for i in $(seq 1 "$pairs"); do
    pair "$i" $((seed_base + i)) 0 "$runs"
done

python3 - "$runs" "$parent/BENCHMARK.json" <<'EOF'
import json, statistics, sys

sides = {"parent": [], "change": []}
for line in open(sys.argv[1]):
    side, result = line.split(" ", 1)
    sides[side].append(json.loads(result))
failed = {s: sum(r["failed"] for r in rs) for s, rs in sides.items()}
attempted = {s: statistics.median(r["attempted"] for r in rs) for s, rs in sides.items()}
print(f"operations: parent {failed['parent']} failed of {attempted['parent']:.0f}, "
      f"change {failed['change']} failed of {attempted['change']:.0f} "
      "(failed summed over the runs, of the median attempted per run)")
print(f"{'metric':<14}{'side':<8}{'q1':>12}{'median':>12}{'q3':>12}  wins")
for metric in json.load(open(sys.argv[2]))["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    values = {s: [r["metrics"][name]["value"] for r in rs] for s, rs in sides.items()}
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    pairs = list(zip(values["parent"], values["change"]))
    wins = {
        "parent": sum(better(p, c) for p, c in pairs),
        "change": sum(better(c, p) for p, c in pairs),
    }
    for side, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4, method="inclusive")
        print(f"{name:<14}{side:<8}{q1:>12.4g}{med:>12.4g}{q3:>12.4g}  {wins[side]}/{len(pairs)}")
EOF

if [ -n "$layer_metrics" ]; then
    : >"$traced"
    for i in 1 2 3; do
        pair "$i" $((200 + i)) 1 "$traced"
    done
    python3 - "$traced" "$layer_metrics" <<'EOF'
import json, statistics, sys

sides = {"parent": [], "change": []}
for line in open(sys.argv[1]):
    side, result = line.split(" ", 1)
    sides[side].append(json.loads(result))
failed = {s: sum(r["failed"] for r in rs) for s, rs in sides.items()}
attempted = {s: statistics.median(r["attempted"] for r in rs) for s, rs in sides.items()}
print(f"traced pairs: {len(sides['parent'])}; operations: "
      f"parent {failed['parent']} failed of {attempted['parent']:.0f}, "
      f"change {failed['change']} failed of {attempted['change']:.0f}")
print(f"{'metric':<28}{'parent':>12}{'change':>12}")
for name in sys.argv[2].split(","):
    medians = []
    for rs in sides.values():
        values = [r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
        medians.append(f"{statistics.median(values):>12.4g}" if values else f"{'missing':>12}")
    print(f"{name:<28}{''.join(medians)}")
EOF
fi
