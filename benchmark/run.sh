#!/usr/bin/env bash
# The benchmark's one command (see benchmark/README.md):
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--out DIR]
#
# Configures and builds build-bench/ from benchmark/CMakeLists.txt (which
# builds the repository's libraries with their default options), then runs
# each selected workload in its own process. Without --workload it runs all
# four. Every run prints its metrics by name with their units and, as its
# last line, one JSON object {"correct", "attempted", "failed", "metrics"};
# result files land in DIR/<workload>-s<seed>[-trace]/ (default
# build-bench/results). Exits non-zero when a build fails, a run fails, or
# any output is incorrect.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
all_workloads=(serve_hot serve_churn serve_write_mix train_power)

workloads=()
seed=7
seconds=30
trace=0
out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ $# -gt 1 && ( "$2" == 0 || "$2" == 1 ) ]]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
[[ ${#workloads[@]} -gt 0 ]] || workloads=("${all_workloads[@]}")
if [[ -n "$out" && "$out" != /* ]]; then
  out="$PWD/$out"
fi

cd "$root"
build=build-bench
jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then
  jobs=4
fi
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" -j "$jobs"
} >&2

commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
status=0
for w in "${workloads[@]}"; do
  suffix=""
  [[ "$trace" == 1 ]] && suffix="-trace"
  dir="${out:-$build/results}/$w-s$seed$suffix"
  "$build/pnp_bench" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --out "$dir" --commit "$commit" || status=1
done
exit "$status"
