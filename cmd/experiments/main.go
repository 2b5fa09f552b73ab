// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all -scale 1.0 -o EXPERIMENTS-report.txt
//	experiments -exp fig6
//	experiments -list
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (see -list)")
	scale := flag.Float64("scale", 1.0, "input scale: 1.0 = full paper-sized runs, 0.05 = quick")
	out := flag.String("o", "", "also write the report to this file")
	list := flag.Bool("list", false, "list experiment names and exit")
	workers := flag.Int("workers", 0, "worker goroutines for suite preparation and matrix cells (0 = one per CPU, 1 = serial); results are identical at any count")
	cache := flag.String("cache", "", "directory for the content-keyed preparation cache: assembled+squeezed objects and profiles are reused across runs while programs and inputs are unchanged (delete the directory after toolchain changes)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of suite preparation and pipeline stages here")
	metricsOut := flag.String("metrics", "", "write accumulated pipeline metrics as JSON here (\"-\" for stderr)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run here")
	memProfile := flag.String("memprofile", "", "write a heap profile (post-run) here")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return
	}
	var rec *obs.Recorder
	if *traceOut != "" || *metricsOut != "" {
		rec = &obs.Recorder{Metrics: obs.NewRegistry()}
		if *traceOut != "" {
			rec.Trace = obs.NewTracer()
		}
	}
	if *cpuProfile != "" {
		cf, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		defer cf.Close()
		if err := pprof.StartCPUProfile(cf); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	start := time.Now()
	fmt.Fprintf(os.Stderr, "preparing suite (scale %.2f): generate, assemble, squeeze, profile...\n", *scale)
	suite, err := experiments.LoadCachedObs(*scale, *workers, *cache, rec)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "suite ready in %v (%d/%d benchmarks from cache)\n",
		time.Since(start).Round(time.Millisecond), suite.PrepCacheHits, len(suite.Benches))

	report, err := experiments.Run(suite, *exp)
	if err != nil {
		fail(err)
	}
	fmt.Print(report)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", *out)
	}
	if err := rec.WriteFiles(*traceOut, *metricsOut); err != nil {
		fail(err)
	}
	if *traceOut != "" {
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceOut)
	}
	if *memProfile != "" {
		if err := obs.WriteHeapProfile(*memProfile); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "total time %v\n", time.Since(start).Round(time.Millisecond))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
