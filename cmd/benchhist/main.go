// Command benchhist gates the paired fast/slow benchmark ratios that
// scripts/bench.sh measures:
//
//	scripts/bench.sh | tee bench.txt
//	benchhist -in bench.txt
//
// It prints each pair's ratio (slow ns/op over fast ns/op, medians across
// -count repetitions) against its floor and exits nonzero when a ratio is
// below its floor or a pair is missing from the input. It records nothing:
// the bench output itself is the record.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/benchhist"
)

func main() {
	in := flag.String("in", "-", "benchmark output file from `go test -bench` ('-' = stdin)")
	flag.Parse()

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
	entries, err := benchhist.Ratios(samples, pairs)
	if err != nil {
		fail(err)
	}
	for i, e := range entries {
		fmt.Printf("%-22s %6.2fx  (floor %.2fx)\n", e.Benchmark, e.Ratio, pairs[i].Min)
	}
	if err := benchhist.Check(entries, pairs); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchhist:", err)
	os.Exit(1)
}
