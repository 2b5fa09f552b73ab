// Command benchhist records paired fast/slow benchmark ratios per commit
// and enforces their regression floors. CI pipes the output of
// scripts/bench.sh into it:
//
//	scripts/bench.sh | tee bench.txt
//	benchhist -in bench.txt -history BENCH_history.json -commit "$GITHUB_SHA"
//
// The ratio of each pair (slow ns/op over fast ns/op, medians across
// -count repetitions) is appended to the history file and checked against
// its floor; a regression exits nonzero *after* recording the entry, so the
// history also documents the failure.
//
// With -allocs it ingests `go test -bench -benchmem` output from
// scripts/alloc_gate.sh instead and enforces the allocation gates.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/benchhist"
)

func main() {
	in := flag.String("in", "-", "benchmark output file from `go test -bench` ('-' = stdin)")
	allocsIn := flag.String("allocs", "", "`go test -bench -benchmem` output to ingest for the alloc/op gates")
	history := flag.String("history", "BENCH_history.json", "history file to append to")
	commit := flag.String("commit", os.Getenv("GITHUB_SHA"), "commit hash to record (default $GITHUB_SHA)")
	date := flag.String("date", time.Now().UTC().Format("2006-01-02"), "date to record (UTC)")
	noCheck := flag.Bool("no-check", false, "record ratios without enforcing regression floors")
	flag.Parse()
	if *commit == "" {
		*commit = "unknown"
	}

	if *allocsIn != "" {
		ingestAllocs(*allocsIn, *history, *commit, *date, *noCheck)
		return
	}

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		r = f
	}
	samples, err := benchhist.ParseNsPerOp(r)
	if err != nil {
		fail(err)
	}
	pairs := benchhist.DefaultPairs()
	entries, err := benchhist.Ratios(samples, pairs, *commit, *date)
	if err != nil {
		fail(err)
	}
	if err := benchhist.Append(*history, entries); err != nil {
		fail(err)
	}
	floors := map[string]float64{}
	for _, p := range pairs {
		floors[p.Name] = p.Min
	}
	for _, e := range entries {
		fmt.Printf("%-22s %6.2fx  (floor %.2fx)\n", e.Benchmark, e.Ratio, floors[e.Benchmark])
	}
	fmt.Printf("recorded %d ratios for %s in %s\n", len(entries), *commit, *history)
	if !*noCheck {
		if err := benchhist.Check(entries, pairs); err != nil {
			fail(err)
		}
	}
}

// ingestAllocs records the pooled/fresh allocation medians from -benchmem
// output and enforces the pooled allocs/op ceilings and fresh/pooled floors.
// Entries are appended before checking, so the history documents the failing
// run too.
func ingestAllocs(path, history, commit, date string, noCheck bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	allocs, err := benchhist.ParseMetric(bytes.NewReader(data), "allocs/op")
	if err != nil {
		fail(err)
	}
	byteSamples, err := benchhist.ParseMetric(bytes.NewReader(data), "B/op")
	if err != nil {
		fail(err)
	}
	gates := benchhist.DefaultAllocGates()
	entries, err := benchhist.AllocEntries(allocs, byteSamples, gates, commit, date)
	if err != nil {
		fail(err)
	}
	if err := benchhist.Append(history, entries); err != nil {
		fail(err)
	}
	for _, e := range entries {
		fmt.Printf("%-32s %10.1f %s\n", e.Benchmark, e.Value, e.Unit)
	}
	fmt.Printf("recorded %d alloc metrics for %s in %s\n", len(entries), commit, history)
	if !noCheck {
		if err := benchhist.CheckAllocs(allocs, gates); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchhist:", err)
	os.Exit(1)
}
