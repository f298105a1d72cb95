#!/usr/bin/env bash
# Builds pooledd and the benchmark harness from this checkout, then runs
# one workload. Run it from the repository root:
#
#   bash poolbench/run.sh --workload sync-exact --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and settings, server logs and WALs
# all stay under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pooledd || ! -d poolbench ]]; then
	echo "poolbench: run from the repository root (go.mod, cmd/pooledd and poolbench/ must exist)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build = /* ]] || build=$PWD/$build
mkdir -p "$build/bin" "$build/tmp" "$build/run"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath GOMODCACHE=$build/gomod
# The go command keeps its settings and telemetry under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -o "$build/bin/pooledd" ./cmd/pooledd >&2
go build -o "$build/bin/poolbench" ./poolbench >&2
exec "$build/bin/poolbench" -pooledd "$build/bin/pooledd" -workdir "$build/run" "$@"
