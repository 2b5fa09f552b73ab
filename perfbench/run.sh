#!/usr/bin/env bash
# Builds the repository benchmark from the sources of the checkout it is run
# in and runs it with the given flags. Run it from the repository root:
#
#   bash perfbench/run.sh --workload squash --seed 1 --seconds 12 --trace 0
#
# The Go build cache, the binary and the daemon's socket stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
