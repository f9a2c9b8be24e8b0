#!/usr/bin/env bash
# Builds the benchmark and the bestagond daemon from this checkout, then
# runs the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash cmd/bench/run.sh --workload flow-cold --seed 1 --seconds 12 --trace 0
#   bash cmd/bench/run.sh -seed 1 -o report.json   # every workload, both modes
#
# Binaries, the Go build cache, temporary files and the benchmark's scratch
# files stay in .bench_build/ under the repository root; the first run fills
# the cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f cmd/bench/go.mod ]]; then
	echo "run.sh: run from the repository root (go.mod, internal/ and cmd/bench/ are needed)" >&2
	exit 2
fi

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/bestagond" ./cmd/bestagond
go -C cmd/bench build -o "$build/bench" .
exec "$build/bench" -bestagond "$build/bestagond" -workdir "$build/work" "$@"
