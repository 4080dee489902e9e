#!/usr/bin/env bash
# Builds the benchmark from the sources of the current checkout and runs
# it with the given arguments, for example
#
#   bash perfbench/run.sh --workload hypercube-n18 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artefact (binary, Go build
# cache, temporary files, span dumps) stays under .bench_build there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
