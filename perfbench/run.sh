#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it is run from,
# then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload quote --seed 1 --seconds 12 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in
# the working directory, which must be the repository root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
