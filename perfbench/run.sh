#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. Every build artifact, the Go
# build cache included, stays under .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
