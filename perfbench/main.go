// Command perfbench is the repository benchmark. One process prepares four
// mediabench programs through experiments.PrepareSpec, drives one of four
// workloads, checks every output, and prints its metrics as one JSON object
// on the last line of standard output.
//
// Workloads (BENCHMARK.json records why each exists):
//
//   - squash: one-shot core.Squash + Image.WriteTo at θ ∈ {0, 5e-5, 1e-3}.
//   - run:    the em-run load path and VM dispatch on timing-class inputs.
//   - thrash: the same images on inputs made only of trigger bytes (§7).
//   - serve:  two closed-loop clients against an in-process squash daemon.
//
// Every workload runs all three paths (squash, the VM path on its own
// inputs, serve) in small interleaved units, so every end-to-end metric is
// reported on every workload; the named path gets half of the measuring
// time. Times are scaled to a reference machine speed (calib.go).
//
// Run it from the repository root through the wrapper, which builds it from
// the checkout's sources:
//
//	bash perfbench/run.sh --workload squash --seed 1 --seconds 12 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload with
// layer timing (obs spans, a timing vm.Hook, direct calls into the layers)
// and prints the per-layer metrics, the layer coverage and the tracing
// overhead. A report with the machine fingerprint and the seed precedes the
// result line. The process exits non-zero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps each workload name to the phase it measures for the bulk
// of the run.
var workloads = map[string]phase{
	"squash": phaseSquash,
	"run":    phaseRun,
	"thrash": phaseThrash,
	"serve":  phaseServe,
}

// options is one benchmark invocation. The flags fill the first five; the
// rest exist so the smoke test can shrink the run and damage a reference.
type options struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	socket   string

	scale float64 // profiling-input scale for experiments.PrepareSpec
	sizes sizes
	// corrupt names a reference output ("squash", "run" or "serve") that
	// the benchmark deliberately damages after setup; the smoke test uses
	// it to prove that a wrong output is counted as a failure.
	corrupt string
}

// sizes fixes how much work a unit does and how often set-up repeats.
type sizes struct {
	runBytes    int // seeded timing-class input bytes per program
	thrashBytes int // seeded trigger-byte input bytes per program
	setupReps   int // set-ups timed for setup_s (the first one is kept)
}

var defaultSizes = sizes{
	runBytes:    24000,
	thrashBytes: 1500,
	setupReps:   3,
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: squash, run, thrash or serve")
	flag.Int64Var(&o.seed, "seed", 1, "seed every run input is generated from")
	secs := flag.Int("seconds", 12, "seconds of measurement")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	flag.StringVar(&o.socket, "socket", "", "Unix socket of the in-process daemon (default: .bench_build/perfbench-<pid>.sock)")
	flag.Parse()
	if _, ok := workloads[o.workload]; !ok || *secs < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload squash|run|thrash|serve --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	o.budget = time.Duration(*secs) * time.Second
	o.trace = *trace == 1
	o.scale = 1.0
	o.sizes = defaultSizes
	if o.socket == "" {
		o.socket = filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d.sock", os.Getpid()))
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one invocation, writes the report and the result line to w,
// and returns the result. An error means the benchmark could not run at all
// (no result line is written); failed checks are counted in the result.
func run(o options, w io.Writer) (*result, error) {
	primary, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	fp := fingerprint(o.seed)
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v\n",
		o.workload, o.seed, o.budget.Seconds(), o.trace)
	fpJSON, _ := json.Marshal(fp) // map of strings and numbers; cannot fail
	fmt.Fprintf(w, "fingerprint %s\n", fpJSON)

	b := &bench{opts: o, primary: primary, led: newLedger(), chk: &checker{}}
	if err := b.setup(); err != nil {
		return nil, err
	}
	defer b.close()
	if err := b.measure(); err != nil {
		return nil, err
	}
	b.led.set("peak_rss_mb", peakRSSMB())

	want := endToEnd
	if o.trace {
		want = perLayer
	}
	res := &result{Metrics: map[string]metric{}}
	for _, d := range want {
		v, ok := b.led.vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	res.Attempted, res.Failed = b.chk.counts()
	res.Correct = res.Failed == 0 && res.Attempted > 0

	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, line := range b.led.notes {
		fmt.Fprintf(w, "  %s\n", line)
	}
	fmt.Fprintf(w, "fail_ratio %g (%d of %d operations failed)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	for _, msg := range b.chk.messages() {
		fmt.Fprintf(w, "FAIL %s\n", msg)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res, nil
}
