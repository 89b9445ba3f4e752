#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root, passing every argument through:
#
#   bash bench/run.sh --workload cohort-clean --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/. The
# build fails, and the script exits non-zero without printing a result,
# when the repository's module is not beside bench/.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
