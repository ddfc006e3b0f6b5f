#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 18 --trace 0
#
# Run it from the root of the repository. Everything it writes (the Go
# build cache, the binary, the stores of a run and the trace spans)
# goes under .bench_build/ there, or under $CARGO_TARGET_DIR when set.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/go/tmp" "$build/go/config"

export GOCACHE=$build/go/cache GOMODCACHE=$build/go/mod GOPATH=$build/go/path
export GOTMPDIR=$build/go/tmp XDG_CONFIG_HOME=$build/go/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$(dirname "$0")" && go build -o "$build/perfbench.bin" .)
exec "$build/perfbench.bin" --workdir "$build/perfbench" "$@"
