#!/bin/bash
# Entry point of the repository benchmark: the "command" of BENCHMARK.json.
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash bench/run.sh -seed 0xa20        # every workload, then the per-layer probe
#
# Builds the driver from source and runs it. Everything the build writes, the
# Go build cache included, stays under .bench_build/ in the checkout, so a
# run reads and writes nothing outside it. In a directory without the program
# under test (cmd/azoo, internal/) the build fails and nothing is measured.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
export GOCACHE="$root/.bench_build/gocache"
mkdir -p "$root/.bench_build/bin"
go build -C "$root/bench" -o "$root/.bench_build/bin/azbench" ./cmd/azbench
cd "$root"
exec "$root/.bench_build/bin/azbench" "$@"
