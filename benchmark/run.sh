#!/usr/bin/env bash
# Runs the whole benchmark into one result set: every workload RUNS times
# untraced (the end-to-end metrics, one seed per run) and once traced (the
# per-layer metrics and benchmark/out/<workload>.trace.json).
#
#   benchmark/run.sh [SET] [RUNS] [FIRST_SEED]
#
# writes benchmark/out/SET.json; compare two sets with
#   cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
#     compare benchmark/out/A.json benchmark/out/B.json
set -euo pipefail
cd "$(dirname "$0")/.."

set_name=${1:-set}
runs=${2:-10}
first_seed=${3:-1}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
set_file=benchmark/out/$set_name.json
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)

mkdir -p benchmark/out
rm -f "$set_file"
for workload in sweep_narrow sweep_wide analysis serve_batch; do
  for ((i = 0; i < runs; i++)); do
    "${bench[@]}" --workload "$workload" --seed $((first_seed + i)) \
      --seconds "$seconds" --trace 0 --set "$set_file" | sed -n 1p
  done
  "${bench[@]}" --workload "$workload" --seed "$first_seed" \
    --seconds "$seconds" --trace 1 --set "$set_file" | sed -n 1p
done
echo "result set: $set_file"
