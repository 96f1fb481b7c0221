#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments (see perfbench/README.md). Run it from the root of
# the checkout. Every file the build and the run write stays under
# .bench_build/ in the checkout: the Go build cache, the binary, the
# per-seed oracle cache, the on-disk store and the Chrome traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

# The build runs with its caches and its home inside the checkout, with
# no toolchain download and no telemetry.
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go" \
	GOTOOLCHAIN=local GOTELEMETRY=off \
		go build -trimpath -buildvcs=false -o "$out/perfbench" . >&2
)

exec "$out/perfbench" "$@"
