#!/usr/bin/env sh
# One-command refresh of the perf-gate baselines (bench/baseline.json,
# bench/baseline_kernels.json and bench/baseline_scale.json).
#
# Run after an intentional performance or metrics change, from the repo
# root, with a Release build in ./build. Commit the regenerated JSON
# together with the change that motivated it — the CI perf gates
# (ci/check_perf.py) compare every future run against these files.
set -eu
cd "$(dirname "$0")/.."
for bin in bench_pipeline bench_kernels bench_scale; do
  if [ ! -x "build/$bin" ]; then
    echo "build/$bin missing: cmake -B build -S . && cmake --build build -j" >&2
    exit 2
  fi
done
# Same cells and reps as the CI gates: quick instances, best-of-5 so the
# recorded latency is a stable per-machine floor, not a noisy single shot.
./build/bench_pipeline --quick --reps 5 --json bench/baseline.json
./build/bench_kernels --quick --reps 5 --json bench/baseline_kernels.json
# The 1k-vertex full-pipeline cells: gated exactly on metrics and
# circuit_hash, loosely on latency (--max-regress 1.0 in CI).
./build/bench_scale --quick --full-pipeline --json bench/baseline_scale.json
echo "bench/baseline.json, bench/baseline_kernels.json and"
echo "bench/baseline_scale.json refreshed;"
echo "commit them with your change."
