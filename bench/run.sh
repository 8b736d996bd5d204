#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it.
# Run from the repository root:
#
#   bash bench/run.sh --workload sim-vector --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, temp files,
# traces) stays under .bench_build/ in the checkout. Build output goes to
# standard error, so standard output carries only the benchmark's lines.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off \
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"

(cd "$root/bench" && go build -trimpath -o "$build/bench" .) >&2
exec "$build/bench" -root "$root" "$@"
