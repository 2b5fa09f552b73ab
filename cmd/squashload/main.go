// Command squashload replays a stream recorded by `squashd -record`
// against a live squashd at a multiple of its recorded rate and reports
// service-level throughput: req/s, p50/p90/p99 latency, and cache hit
// rates. The schedule is open-loop: it does not slow down when the daemon
// does, so saturation shows up in the latency tail.
//
//	squashload -connect unix:/tmp/squashd.sock -replay stream.jsonl -rate 2 -conns 8
//
// The JSON report (-out) is serve.LoadReport; with -out - it is all that
// goes to stdout, and the summary lines go to stderr. The load gate (req/s,
// p50/p99 latency, cache hit rate, zero errors) is a Go test, cmd/squashd's
// TestRecordedReplayLoadGate, which replays a recorded stream through the
// same serve.Replay this command calls. Closed-loop capacity is measured by
// the perfbench serve workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is squashload with its arguments and output streams passed in; it
// returns the exit status: 1 when the replay fails or any request fails, 2
// on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("squashload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	connect := fs.String("connect", "", "daemon address (unix:/path or tcp:host:port)")
	conns := fs.Int("conns", 4, "concurrent connections")
	out := fs.String("out", "", "write the JSON report here ('-' = stdout, summary to stderr; default none)")
	quiet := fs.Bool("q", false, "suppress progress logging")
	replay := fs.String("replay", "", "replay this JSONL stream recorded by squashd -record (required)")
	rate := fs.Float64("rate", 1.0, "replay speed as a multiple of the recorded rate")
	fallbackBench := fs.String("fallback-bench", "", "replay inline-only entries as this named benchmark (default: skip them)")
	fallbackObj := fs.String("fallback-obj", "", "replay inline-only entries with this object file (with -fallback-profile)")
	fallbackProf := fs.String("fallback-profile", "", "profile file for -fallback-obj")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *connect == "" || *replay == "" {
		fmt.Fprintln(stderr, "usage: squashload -connect ADDR -replay FILE [-rate N] [-conns N] [-fallback-bench NAME | -fallback-obj FILE -fallback-profile FILE] [-out FILE] [-q]")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "squashload:", err)
		return 1
	}

	opts := serve.LoadOptions{
		Addr:          *connect,
		Conns:         *conns,
		Rate:          *rate,
		FallbackBench: *fallbackBench,
	}
	if !*quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, "squashload: "+format+"\n", args...)
		}
	}
	if *fallbackObj != "" || *fallbackProf != "" {
		if *fallbackObj == "" || *fallbackProf == "" {
			return fail(fmt.Errorf("-fallback-obj needs both the object and its profile file"))
		}
		var err error
		if opts.FallbackObj, err = os.ReadFile(*fallbackObj); err != nil {
			return fail(err)
		}
		if opts.FallbackProfile, err = os.ReadFile(*fallbackProf); err != nil {
			return fail(err)
		}
	}

	f, err := os.Open(*replay)
	if err != nil {
		return fail(err)
	}
	entries, err := serve.ReadStream(f)
	f.Close()
	if err != nil {
		return fail(err)
	}
	rep, err := serve.Replay(opts, entries)
	if err != nil {
		return fail(err)
	}

	summary := stdout
	if *out == "-" {
		summary = stderr
	}
	fmt.Fprintf(summary, "conns=%d rate=%.2fx requests=%d objects=%d errors=%d skipped=%d\n",
		rep.Concurrency, rep.Rate, rep.Requests, rep.Objects, rep.Errors, rep.Skipped)
	fmt.Fprintf(summary, "wall=%.2fs  req/s=%.1f  obj/s=%.1f\n", rep.DurationSec, rep.ReqPerSec, rep.ObjPerSec)
	fmt.Fprintf(summary, "latency ms: p50=%.2f p90=%.2f p99=%.2f max=%.2f mean=%.2f\n",
		rep.Latency.P50, rep.Latency.P90, rep.Latency.P99, rep.Latency.Max, rep.Latency.Mean)
	fmt.Fprintf(summary, "cache hit rate: result=%.2f prep=%.2f\n", rep.CacheHitRate, rep.PrepHitRate)
	fmt.Fprintf(summary, "wire: in=%s/s out=%s/s (%d / %d bytes total)\n",
		fmtBytes(rep.BytesInPerSec), fmtBytes(rep.BytesOutPerSec), rep.BytesIn, rep.BytesOut)

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(err)
		}
		data = append(data, '\n')
		if *out == "-" {
			_, err = stdout.Write(data)
		} else {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	if rep.Errors > 0 {
		return fail(fmt.Errorf("%d of %d requests failed", rep.Errors, rep.Requests))
	}
	return 0
}

// fmtBytes renders a byte rate for the human-readable line (the JSON
// report keeps raw values).
func fmtBytes(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2f MB", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1f KB", v/1e3)
	default:
		return fmt.Sprintf("%.0f B", v)
	}
}
