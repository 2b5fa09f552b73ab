// Command squashload drives a live squashd at controlled load and reports
// service-level throughput: req/s, p50/p90/p99 latency, and cache hit
// rates. Two modes:
//
// Replay — send a stream recorded by `squashd -record` back at a multiple
// of its recorded rate (open-loop: the schedule does not slow down when the
// daemon does, so saturation shows up in the latency tail):
//
//	squashload -connect unix:/tmp/squashd.sock -replay stream.jsonl -rate 2 -conns 8
//
// Synthetic — a closed loop of N clients hammering one request shape,
// measuring the capacity ceiling:
//
//	squashload -connect unix:/tmp/squashd.sock -bench adpcm -conns 8 -duration 10s
//	squashload -connect unix:/tmp/squashd.sock -bench adpcm -batch 16 -requests 50
//
// The JSON report (-out) is serve.LoadReport. The load gate (req/s, p50/p99
// latency, cache hit rate, zero errors) is a Go test, cmd/squashd's
// TestRecordedReplayLoadGate, which replays a recorded stream through the
// same serve.Replay this command calls.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/serve"
)

func main() {
	connect := flag.String("connect", "", "daemon address (unix:/path or tcp:host:port)")
	conns := flag.Int("conns", 4, "concurrent connections")
	out := flag.String("out", "", "write the JSON report here ('-' = stdout; default none)")
	quiet := flag.Bool("q", false, "suppress progress logging")

	replay := flag.String("replay", "", "replay this JSONL stream recorded by squashd -record")
	rate := flag.Float64("rate", 1.0, "replay speed as a multiple of the recorded rate")
	fallbackBench := flag.String("fallback-bench", "", "replay inline-only entries as this named benchmark (default: skip them)")
	fallbackObj := flag.String("fallback-obj", "", "replay inline-only entries with this object file (with -fallback-profile)")
	fallbackProf := flag.String("fallback-profile", "", "profile file for -fallback-obj")

	bench := flag.String("bench", "", "synthetic: named mediabench benchmark prepared server-side")
	scale := flag.Float64("scale", 1.0, "synthetic: input scale for -bench")
	objIn := flag.String("obj", "", "synthetic: inline object file (with -profile)")
	profIn := flag.String("profile", "", "synthetic: profile file for -obj")
	batch := flag.Int("batch", 1, "synthetic: objects per frame (>1 sends batch requests)")
	duration := flag.Duration("duration", 5*time.Second, "synthetic: closed-loop run length")
	requests := flag.Int("requests", 0, "synthetic: fixed request budget instead of -duration")
	noImage := flag.Bool("noimage", false, "stats-only requests: the server squashes but omits image bytes from responses")
	flag.Parse()

	if *connect == "" {
		fail(fmt.Errorf("-connect is required"))
	}
	opts := serve.LoadOptions{
		Addr:          *connect,
		Conns:         *conns,
		Rate:          *rate,
		FallbackBench: *fallbackBench,
		Bench:         *bench,
		Scale:         *scale,
		BatchSize:     *batch,
		Duration:      *duration,
		Requests:      *requests,
		NoImage:       *noImage,
	}
	if !*quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "squashload: "+format+"\n", args...)
		}
	}
	opts.FallbackObj, opts.FallbackProfile = readPair(*fallbackObj, *fallbackProf, "-fallback-obj")
	opts.Obj, opts.Profile = readPair(*objIn, *profIn, "-obj")

	var rep *serve.LoadReport
	var err error
	switch {
	case *replay != "":
		f, ferr := os.Open(*replay)
		if ferr != nil {
			fail(ferr)
		}
		entries, rerr := serve.ReadStream(f)
		f.Close()
		if rerr != nil {
			fail(rerr)
		}
		rep, err = serve.Replay(opts, entries)
	case *bench != "" || *objIn != "":
		rep, err = serve.Synthetic(opts)
	default:
		fail(fmt.Errorf("pick a mode: -replay FILE, or -bench NAME / -obj FILE for synthetic load"))
	}
	if err != nil {
		fail(err)
	}

	fmt.Printf("mode=%s conns=%d requests=%d objects=%d errors=%d skipped=%d\n",
		rep.Mode, rep.Concurrency, rep.Requests, rep.Objects, rep.Errors, rep.Skipped)
	fmt.Printf("wall=%.2fs  req/s=%.1f  obj/s=%.1f\n", rep.DurationSec, rep.ReqPerSec, rep.ObjPerSec)
	fmt.Printf("latency ms: p50=%.2f p90=%.2f p99=%.2f max=%.2f mean=%.2f\n",
		rep.Latency.P50, rep.Latency.P90, rep.Latency.P99, rep.Latency.Max, rep.Latency.Mean)
	fmt.Printf("cache hit rate: result=%.2f prep=%.2f\n", rep.CacheHitRate, rep.PrepHitRate)
	fmt.Printf("wire: in=%s/s out=%s/s (%d / %d bytes total)\n",
		fmtBytes(rep.BytesInPerSec), fmtBytes(rep.BytesOutPerSec), rep.BytesIn, rep.BytesOut)

	if *out != "" {
		data, merr := json.MarshalIndent(rep, "", "  ")
		if merr != nil {
			fail(merr)
		}
		data = append(data, '\n')
		if *out == "-" {
			os.Stdout.Write(data)
		} else if werr := os.WriteFile(*out, data, 0o644); werr != nil {
			fail(werr)
		}
	}
	if rep.Errors > 0 {
		fail(fmt.Errorf("%d of %d requests failed", rep.Errors, rep.Requests))
	}
}

// readPair loads an obj/profile file pair; both-or-neither is enforced.
func readPair(objPath, profPath, flagName string) ([]byte, []byte) {
	if objPath == "" && profPath == "" {
		return nil, nil
	}
	if objPath == "" || profPath == "" {
		fail(fmt.Errorf("%s needs both the object and its profile file", flagName))
	}
	obj, err := os.ReadFile(objPath)
	if err != nil {
		fail(err)
	}
	prof, err := os.ReadFile(profPath)
	if err != nil {
		fail(err)
	}
	return obj, prof
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

func fail(err error) {
	fmt.Fprintln(os.Stderr, "squashload:", err)
	os.Exit(1)
}
