#!/usr/bin/env bash
# Builds perfbench from source and runs it. Run from the root of a
# checkout; arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload cnk-io --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build and module caches, temporary
# files, toolchain config) stays under .bench_build/ in the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
