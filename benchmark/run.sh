#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# flags. Run it from the repository root, e.g.
#
#   bash benchmark/run.sh --workload campaign-tablei --seed 1 --seconds 20 --trace 0
#
# Every build artefact and scratch file stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the temporary state
# directories the workloads create.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off

go -C benchmark build -o "$out/xedbenchmark" .
exec "$out/xedbenchmark" "$@"
