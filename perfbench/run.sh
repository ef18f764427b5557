#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload slot-uniform --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
