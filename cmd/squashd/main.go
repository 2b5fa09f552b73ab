// Command squashd is the serve-mode squash daemon. In server mode it
// listens on a Unix or TCP socket, runs the parallel squash pipeline for
// each request, and keeps warm state — finished squash results keyed by
// content hash, plus the experiments preparation cache — so repeated
// requests skip the expensive work. Output is byte-identical to one-shot
// cmd/squash for the same object, profile, and configuration.
//
// Server:
//
//	squashd -listen unix:/tmp/squashd.sock -workers 4 -timeout 60s
//
// Client (mirrors cmd/squash's flags; writes the image where -o says):
//
//	squashd -connect unix:/tmp/squashd.sock -profile prog.prof prog.sq.o -o prog.sqz.exe
//	squashd -connect unix:/tmp/squashd.sock -bench adpcm_enc
//	squashd -connect unix:/tmp/squashd.sock -batch adpcm,gsm,prog.o:prog.prof -out-dir out/
//	squashd -connect unix:/tmp/squashd.sock -stats
//	squashd -connect unix:/tmp/squashd.sock -ping
//
// A server started with -record stream.jsonl appends each request arrival
// to that file; cmd/squashload replays such a stream at 1x/2x/Nx the
// recorded rate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/daemon"
)

func main() {
	// Mode selection.
	listen := flag.String("listen", "", "serve on this address (unix:/path or tcp:host:port)")
	connect := flag.String("connect", "", "act as a client of the daemon at this address")

	// Server options.
	srvWorkers := flag.Int("serve-workers", 0, "concurrent squash requests (0 = one per CPU)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request timeout (0 = none)")
	cacheEntries := flag.Int("cache-entries", 64, "warm squash-result cache size (negative disables)")
	cacheBytes := flag.Int64("cache-bytes", 0, "additional byte budget for the result cache: images plus the object and profile bytes it retains, each interned copy counted once (0 = entry-count bound only)")
	prepDir := flag.String("prep-cache", "", "on-disk experiments prep cache dir for -bench requests")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus), /metrics.json, and /debug/pprof on this host:port")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of request and pipeline spans here at shutdown")
	record := flag.String("record", "", "append each request arrival (content hash / bench key, offset) to this JSONL file for cmd/squashload replay")

	// Client requests.
	stats := flag.Bool("stats", false, "client: print the server's stats snapshot as JSON")
	ping := flag.Bool("ping", false, "client: check daemon liveness")
	bench := flag.String("bench", "", "client: squash a named mediabench benchmark prepared server-side")
	scale := flag.Float64("scale", 1.0, "client: input scale for -bench")
	batch := flag.String("batch", "", "client: comma-separated batch items, each a bench name or OBJ:PROFILE file pair, sent as one frame")
	outDir := flag.String("out-dir", ".", "client: directory for -batch images (batch-NN.sqz.exe)")
	noImage := flag.Bool("noimage", false, "client: stats-only requests — the server runs the squash but omits image bytes from the response")

	// Squash configuration, mirroring cmd/squash.
	profIn := flag.String("profile", "", "basic-block profile from em-run -profile")
	out := flag.String("o", "", "output image (default: input with .sqz.exe suffix)")
	conf := core.BindFlags(flag.CommandLine)
	flag.Parse()

	switch {
	case *listen != "" && *connect != "":
		fail(fmt.Errorf("-listen and -connect are mutually exclusive"))
	case *listen != "":
		err := runServer(*listen, serve.Options{
			Workers:      *srvWorkers,
			Timeout:      *timeout,
			CacheEntries: *cacheEntries,
			CacheBytes:   *cacheBytes,
			PrepCacheDir: *prepDir,
		}, *metricsAddr, *traceOut, *record)
		if err != nil {
			fail(err)
		}
	case *connect != "":
		runClient(*connect, clientArgs{
			stats: *stats, ping: *ping,
			bench: *bench, scale: *scale,
			batch: *batch, outDir: *outDir,
			profIn: *profIn, out: *out, conf: *conf,
			noImage: *noImage, args: flag.Args(),
		})
	default:
		fmt.Fprintln(os.Stderr, "usage: squashd -listen ADDR [server flags]")
		fmt.Fprintln(os.Stderr, "       squashd -connect ADDR (-stats | -ping | -bench NAME | -batch ITEMS | -profile prog.prof prog.o) [squash flags]")
		os.Exit(2)
	}
}

// runServer runs the daemon until SIGTERM has drained it. The trace, when
// asked for, is written whether the daemon drained or failed.
func runServer(addr string, opts serve.Options, metricsAddr, traceOut, recordPath string) error {
	rec := &obs.Recorder{Metrics: obs.NewRegistry()}
	if traceOut != "" {
		rec.Trace = obs.NewTracer()
	}
	opts.Obs = rec

	if recordPath != "" {
		f, err := os.OpenFile(recordPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		opts.Record = serve.NewStreamRecorder(f)
		fmt.Fprintf(os.Stderr, "squashd: recording request stream to %s\n", recordPath)
	}

	err := daemon.Run(serve.NewServer(opts), []string{addr}, metricsAddr)
	if werr := rec.WriteFiles(traceOut, ""); werr != nil {
		return errors.Join(err, fmt.Errorf("trace: %w", werr))
	}
	if traceOut != "" {
		fmt.Fprintf(os.Stderr, "squashd: wrote trace to %s\n%s", traceOut, rec.Trace.Summary())
	}
	return err
}

type clientArgs struct {
	stats, ping   bool
	bench         string
	scale         float64
	batch, outDir string
	profIn, out   string
	conf          core.Config
	noImage       bool
	args          []string // positional arguments: the object to squash
}

func runClient(addr string, a clientArgs) {
	cl, err := serve.DialClient(addr)
	if err != nil {
		fail(err)
	}
	defer cl.Close()

	switch {
	case a.stats:
		resp := must(cl.Do(&serve.Request{Op: serve.OpStats}))
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp.Server); err != nil {
			fail(err)
		}

	case a.ping:
		start := time.Now()
		must(cl.Do(&serve.Request{Op: serve.OpPing}))
		fmt.Printf("squashd at %s is up (%s)\n", addr, time.Since(start).Round(time.Microsecond))

	case a.batch != "":
		runBatch(cl, a)

	case a.bench != "":
		resp := must(cl.Do(&serve.Request{
			Op: serve.OpBench, Bench: a.bench, Scale: a.scale, Config: &a.conf, NoImage: a.noImage,
		}))
		name := a.out
		if name == "" {
			name = a.bench + ".sqz.exe"
		}
		writeImage(name, resp)

	default:
		if len(a.args) != 1 || a.profIn == "" {
			fail(fmt.Errorf("client squash needs -profile and one object argument"))
		}
		objBytes, err := os.ReadFile(a.args[0])
		if err != nil {
			fail(err)
		}
		profBytes, err := os.ReadFile(a.profIn)
		if err != nil {
			fail(err)
		}
		resp := must(cl.Do(&serve.Request{
			Op: serve.OpSquash, Obj: objBytes, Profile: profBytes, Config: &a.conf, NoImage: a.noImage,
		}))
		name := a.out
		if name == "" {
			name = a.args[0] + ".sqz.exe"
		}
		writeImage(name, resp)
	}
}

// runBatch sends one OpBatch frame and writes each image to
// outDir/batch-NN.sqz.exe. Item spec: comma-separated entries, each either
// a bench name or an OBJ:PROFILE file pair (detected by the colon). Any
// failed item is reported and the exit status is nonzero, but sibling
// images are still written — per-object isolation end to end.
func runBatch(cl *serve.Client, a clientArgs) {
	var items []serve.BatchItem
	for _, spec := range strings.Split(a.batch, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		if objPath, profPath, ok := strings.Cut(spec, ":"); ok {
			objBytes, err := os.ReadFile(objPath)
			if err != nil {
				fail(err)
			}
			profBytes, err := os.ReadFile(profPath)
			if err != nil {
				fail(err)
			}
			items = append(items, serve.BatchItem{Obj: objBytes, Profile: profBytes, Config: &a.conf})
		} else {
			items = append(items, serve.BatchItem{Bench: spec, Scale: a.scale, Config: &a.conf})
		}
	}
	resp := must(cl.Do(&serve.Request{Op: serve.OpBatch, Items: items, NoImage: a.noImage}))
	if len(resp.Results) != len(items) {
		fail(fmt.Errorf("batch returned %d results for %d items", len(resp.Results), len(items)))
	}
	failed := 0
	for i, r := range resp.Results {
		if !r.OK {
			fmt.Fprintf(os.Stderr, "squashd: batch item %d failed: %s\n", i, r.Err)
			failed++
			continue
		}
		name := filepath.Join(a.outDir, fmt.Sprintf("batch-%02d.sqz.exe", i))
		if len(r.Image) > 0 {
			if err := os.WriteFile(name, r.Image, 0o644); err != nil {
				fail(err)
			}
		} else {
			name = fmt.Sprintf("batch item %d (image omitted)", i)
		}
		src := "computed"
		switch {
		case r.Shared:
			src = "shared in batch"
		case r.Cached:
			src = "warm cache"
		}
		fmt.Printf("%s: %d -> %d bytes (%.1f%% reduction), %s\n",
			name, r.Stats.InputBytes, r.Stats.SquashedBytes, 100*r.Stats.Reduction(), src)
	}
	if failed > 0 {
		fail(fmt.Errorf("%d of %d batch items failed", failed, len(items)))
	}
}

func writeImage(name string, resp *serve.Response) {
	if len(resp.Image) > 0 {
		if err := os.WriteFile(name, resp.Image, 0o644); err != nil {
			fail(err)
		}
	} else {
		name = "(image omitted)"
	}
	st := resp.Stats
	src := "computed"
	if resp.Cached {
		src = "warm cache"
	}
	fmt.Printf("%s: %d -> %d bytes (%.1f%% reduction), %s\n",
		name, st.InputBytes, st.SquashedBytes, 100*st.Reduction(), src)
	fmt.Printf("  %d regions, %d entry stubs, compression factor γ=%.3f\n",
		st.RegionCount, st.EntryStubCount, st.CompressionRatio)
}

func must(resp *serve.Response, err error) *serve.Response {
	if err != nil {
		fail(err)
	}
	if !resp.OK {
		fail(fmt.Errorf("server: %s", resp.Err))
	}
	return resp
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "squashd:", err)
	os.Exit(1)
}
