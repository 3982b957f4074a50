#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, for example:
#
#   bash benchmark/run.sh --workload tcp-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays inside the checkout: the Go build cache and the binary under
# .bench_build, span and profile output under .bench_out.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
(
	cd "$root/benchmark"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
		go build -o "$build/lotec-benchmark" .
)
exec "$build/lotec-benchmark" -out "$root/.bench_out" "$@"
