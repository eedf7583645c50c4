#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload phone-zns --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, and the benchmark's state (output digests,
# span files) all live under .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d internal ]]; then
	echo "perfbench: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Everything the toolchain writes stays under .bench_build, and nothing
# is fetched: the module needs only the standard library and ../.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off GOTELEMETRY=off
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
