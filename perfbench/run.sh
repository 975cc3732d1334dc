#!/usr/bin/env bash
# Builds bubbled and the benchmark from this checkout's sources, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest_search --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout:
# binaries and the Go build cache under .bench_build (or CARGO_TARGET_DIR),
# server roots, spans and reports under .bench_out.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build" GOENV=off \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$build/bubbled" ./cmd/bubbled
(cd perfbench && go build -o "$build/perfbench" .)
mkdir -p .bench_out
exec "$build/perfbench" -bubbled "$build/bubbled" -out .bench_out "$@"
