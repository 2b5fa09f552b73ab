#!/usr/bin/env bash
# bench.sh — run the fast-path microbenchmarks in a benchstat-friendly way.
#
# Each benchmark is a fast/slow pair executed in the same process
# (BenchmarkVMStep/{fast,slow}, BenchmarkVMRun/{fast,slow},
# BenchmarkHuffmanDecode/{table,tree},
# BenchmarkRegionDecompress/{memo,decode}, BenchmarkInterpRegionExec/
# {memo,decode}, BenchmarkLZDecode/*/{table,tree}), so the within-run ratio
# is meaningful even on noisy shared machines. -count repetitions give
# benchstat enough samples for a confidence interval:
#
#   scripts/bench.sh > new.txt
#   benchstat old.txt new.txt        # or: benchstat new.txt  (ratios only)
#
# CI runs COUNT=1 and feeds the output to `cmd/benchhist -in`, which prints
# each pair's ratio against its floor and fails on a regression past it. The
# bench output itself, uploaded as an artifact, is the record.
#
# -benchmem is always on: the allocs/op and B/op columns ride along in the
# same output (benchhist ignores them; the allocation gates are Go tests in
# the packages they guard).
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-6}"
BENCHTIME="${BENCHTIME:-1s}"

go test -run '^$' \
  -bench 'BenchmarkVMStep|BenchmarkVMRun|BenchmarkHuffmanDecode|BenchmarkBitReaderReadBits|BenchmarkRegionDecompress|BenchmarkInterpRegionExec|BenchmarkLZDecode' \
  -benchtime "$BENCHTIME" -count "$COUNT" -benchmem \
  ./internal/vm/ ./internal/huffman/ ./internal/core/ ./internal/lzcomp/
