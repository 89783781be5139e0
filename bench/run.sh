#!/usr/bin/env bash
# What BENCHMARK.json runs: build the benchmark (its own module, bench/go.mod)
# against the checkout's source and run it from the checkout's root, arguments
# passed through. Everything the go tool writes (build cache, temporary files,
# module cache) is kept under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
# Without the program there is nothing to measure. Say so before the go tool
# runs at all: it leaves nothing behind that way.
if [[ ! -f go.mod || ! -d cmd/cryptdb-server ]]; then
	echo "bench: $PWD holds no go.mod and cmd/cryptdb-server: the benchmark runs inside the repository" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# With its configuration directory fresh, the go command starts a telemetry
# child that outlives it. "off" is what `go telemetry off` writes: no child,
# no counter files.
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
