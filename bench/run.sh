#!/usr/bin/env bash
# The repo's benchmark, one command.
#
#   bench/run.sh [--seed N] [--seconds S] [--runs R]   every workload, every
#       metric, outputs checked; writes bench/out/result.json + trace.json
#   bench/run.sh --aa [--seed N] [--runs R]             two back-to-back sets of
#       runs of this build, fed to `compare`; report in bench/out/aa-report.txt
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload (the form BENCHMARK.json's command takes);
#       the last line of stdout is the result object
#
# Spill and exchange files go under bench/out unless --spill-dir DIR is given
# (a tmpfs such as /dev/shm keeps the sandbox's disk out of the numbers).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Share the dependency build with the tier-1 build unless told otherwise.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release"

mode=suite
args=()
for arg in "$@"; do
  case "$arg" in
    --workload) mode=single; args+=("$arg") ;;
    --aa) mode=aa ;;
    *) args+=("$arg") ;;
  esac
done

git_rev="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
case "$mode" in
  single)
    exec "$bin/tsj-perf" --out-dir "$here/out" "${args[@]}"
    ;;
  suite)
    exec "$bin/tsj-perf" suite --out-dir "$here/out" --git-rev "$git_rev" "${args[@]}"
    ;;
  aa)
    for set in 1 2; do
      "$bin/tsj-perf" suite --out-dir "$here/out" --git-rev "$git_rev" \
        --out "$here/out/aa-$set.json" "${args[@]}"
    done
    # pipefail: the exit code is compare's.
    "$bin/compare" "$here/out/aa-1.json" "$here/out/aa-2.json" --aa 1 \
      | tee "$here/out/aa-report.txt"
    ;;
esac
