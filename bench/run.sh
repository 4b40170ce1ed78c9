#!/usr/bin/env bash
# Entry point of the benchmark contract (see ../BENCHMARK.json):
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the benchmark (a Go module of its own, importing the checkout's
# packages through a replace directive) and runs it from the checkout root.
# Everything written lands in .bench_build/ or bench/out/ inside the
# checkout, the Go build cache included. `run`, `check` and `trace`
# subcommands pass through: bash bench/run.sh run -passes 3
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bin/bench" . >&2
cd "$root"
exec "$build/bin/bench" "$@"
