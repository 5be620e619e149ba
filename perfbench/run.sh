#!/usr/bin/env bash
# Builds usimd, usim-index and the benchmark harness from the checkout in
# the current directory, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload node-read --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build) inside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/usimd ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a complete repository checkout" >&2
	exit 2
fi
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/work"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config HOME=$build
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$build/bin/" ./cmd/usimd ./cmd/usim-index >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" -inputs perfbench/inputs "$@"
