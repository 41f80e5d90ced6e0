#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there with the arguments given:
#
#   bash benchmark/run.sh --workload tpcc-dist --seed 42 --seconds 10 --trace 0
#   bash benchmark/run.sh run -out results.json
#
# Everything the build and the run write — the go build cache included —
# stays under .bench_build/. Nothing is downloaded: the benchmark's module
# depends only on the repository around it and the standard library.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
# Build output goes to stderr so that standard output carries only results.
(cd "$here" && go build -o "$build/chiller-benchmark" .) >&2

cd "$root"
exec "$build/chiller-benchmark" "$@"
