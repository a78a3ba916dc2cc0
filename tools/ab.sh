#!/usr/bin/env bash
# Paired parent/change runs of the repo's benchmark: the alternating pairs
# every perf PR used to run by hand, and the section 8 rule of the
# `choosing-metrics` guide applied to them.
#
#   tools/ab.sh <parent-tree> [--pairs N] [--seed S] [--workloads a,b,...]
#
# <parent-tree> is a second checkout (a `git clone` of the parent commit);
# the change is the checkout this script lives in. Each tree's own,
# unmodified `bench/` is built into that tree's `.bench_build/` and driven
# through its own `bench/run.sh --workload W --seed S --seconds 15 --trace 0
# --spill-dir /dev/shm`, one workload at a time, sides alternating
# P C, C P, P C, ... so neither side always runs first. The last stdout line
# of each run is the result object; a run whose `correct` is false or whose
# `failed` is not 0 is refused (its pair is not counted), and the script
# exits 1 after the report.
#
# Per workload x end-to-end metric it prints every pair, both sides' medians
# and quartiles, and how many pairs the change won. Verdict: `improved` /
# `worse` needs nine tenths of the pairs won (ties count for neither) and
# medians further apart than the parent's inter-quartile distance; anything
# else is `unresolved`. Defaults: 10 pairs, seed 7674385, every workload in
# BENCHMARK.json (about 35 minutes). The raw result lines are kept in a file
# named at the end. Needs python3 for the arithmetic.
#
# This lives outside `bench/` and edits nothing there. ROADMAP item 5(a)
# still wants the same thing as a mode of the harness (`bench/run.sh --ab`,
# a paired verdict in `compare`); that is a `[benchmark]` PR's to add.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
[ $# -ge 1 ] || { sed -n '2,6p' "${BASH_SOURCE[0]}" >&2; exit 2; }
parent="$(cd "$1" && pwd)"
shift
pairs=10
seed=7674385
workloads="$(python3 -c 'import json, sys
print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$here/BENCHMARK.json")"
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs="$2" ;;
    --seed) seed="$2" ;;
    --workloads) workloads="$2" ;;
    *) echo "ab.sh: unknown option $1" >&2; exit 2 ;;
  esac
  shift 2
done

# Building `bench/` rewrites a stale `bench/Cargo.lock`, so each tree's
# dirty state is taken before the first build, and the lock file of every
# tree that was clean is restored on exit: a paired run leaves both
# checkouts as committed.
clean_trees=()
for tree in "$parent" "$here"; do
  if git -C "$tree" diff --quiet HEAD; then clean_trees+=("$tree"); fi
done
restore_locks() {
  for tree in "${clean_trees[@]}"; do git -C "$tree" checkout -- bench/Cargo.lock; done
}
trap restore_locks EXIT
dirty=+dirty
for tree in "${clean_trees[@]}"; do [ "$tree" = "$here" ] && dirty=; done

for tree in "$parent" "$here"; do
  CARGO_TARGET_DIR="$tree/.bench_build" cargo build --release --offline --quiet \
    --manifest-path "$tree/bench/Cargo.toml" >&2
done

runs="$(mktemp "${TMPDIR:-/tmp}/ab-runs.XXXXXX")"
one_run() { # side tree workload pair -> "side<TAB>workload<TAB>pair<TAB>result" in $runs
  local result
  result="$(CARGO_TARGET_DIR="$2/.bench_build" bash "$2/bench/run.sh" --workload "$3" \
    --seed "$seed" --seconds 15 --trace 0 --spill-dir /dev/shm | tail -n 1 || true)"
  printf '%s\t%s\t%s\t%s\n' "$1" "$3" "$4" "$result" >> "$runs"
}
for pair in $(seq 1 "$pairs"); do
  for w in ${workloads//,/ }; do
    echo "ab.sh: pair $pair/$pairs $w" >&2
    if [ $((pair % 2)) -eq 1 ]; then
      one_run P "$parent" "$w" "$pair"
      one_run C "$here" "$w" "$pair"
    else
      one_run C "$here" "$w" "$pair"
      one_run P "$parent" "$w" "$pair"
    fi
  done
done

echo "# tools/ab.sh: parent $(git -C "$parent" rev-parse --short HEAD) vs change $(git -C "$here" rev-parse --short HEAD)$dirty, seed $seed, $pairs pairs, $(nproc) cores"
python3 - "$here/BENCHMARK.json" "$runs" <<'PY'
import json, statistics, sys
from collections import defaultdict

bench = json.load(open(sys.argv[1]))
results = defaultdict(dict)  # (workload, pair) -> side -> metrics
refused = 0
for line in open(sys.argv[2]):
    side, workload, pair, raw = line.rstrip("\n").split("\t")
    try:
        result = json.loads(raw)
    except ValueError:
        result = {}
    if result.get("correct") is not True or result.get("failed") != 0:
        refused += 1
        print(f"REFUSED {side} {workload} pair {pair}: {raw[:120]}")
        continue
    results[workload, int(pair)][side] = result["metrics"]

def spread(xs):  # median and quartiles, as `compare` takes them
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return statistics.median(xs), q1, q3

for workload in dict.fromkeys(w for w, _ in results):
    for metric in bench["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [(r["P"][name]["value"], r["C"][name]["value"])  # in pair order
                for (w, _), r in sorted(results.items()) if w == workload and len(r) == 2]
        if not both:
            continue
        won = sum((c < p) if lower else (c > p) for p, c in both)
        lost = sum((c > p) if lower else (c < p) for p, c in both)
        (pm, pq1, pq3), (cm, cq1, cq3) = (spread(list(side)) for side in zip(*both))
        gain = (pm - cm) if lower else (cm - pm)
        verdict = ("improved" if won * 10 >= len(both) * 9 and gain > pq3 - pq1
                   else "worse" if lost * 10 >= len(both) * 9 and -gain > pq3 - pq1
                   else "unresolved")
        print(f"{workload} {name} [{metric['unit']}, {metric['better']} is better]")
        print("  pairs P/C: " + "  ".join(f"{p:.4g}/{c:.4g}" for p, c in both))
        print(f"  parent median {pm:.4g} (q1 {pq1:.4g}, q3 {pq3:.4g})"
              f"  change median {cm:.4g} (q1 {cq1:.4g}, q3 {cq3:.4g})")
        print(f"  change won {won} of {len(both)}, lost {lost}; change/parent medians"
              f" {cm / pm if pm else float('nan'):.3f}, parent IQR {pq3 - pq1:.4g} -> {verdict}")
print(f"refused runs: {refused}; raw result lines: {sys.argv[2]}")
sys.exit(1 if refused else 0)
PY
