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
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/regions"
	"repro/internal/serve"
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
	theta := flag.Float64("theta", 0.0, "cold-code threshold θ (fraction of dynamic instructions)")
	k := flag.Int("K", 512, "runtime buffer bound in bytes")
	gamma := flag.Float64("gamma", 0.66, "assumed compression factor for region selection")
	noPack := flag.Bool("no-pack", false, "disable region packing")
	loopAware := flag.Bool("loop-aware", false, "seed regions from natural loops (§9 extension)")
	interpret := flag.Bool("interpret", false, "interpret compressed code in place instead of decompressing (§8 alternative)")
	noBufferSafe := flag.Bool("no-buffersafe", false, "disable buffer-safe call analysis")
	noUnswitch := flag.Bool("no-unswitch", false, "disable jump-table unswitching")
	mtf := flag.Bool("mtf", false, "use the move-to-front stream coder variant")
	coder := flag.String("coder", "stream", "region coder: stream (split-stream, §3) or lz (dictionary, §8)")
	ctStubs := flag.Bool("compile-time-stubs", false, "materialize restore stubs statically (ablation)")
	stubCap := flag.Int("stub-capacity", 16, "runtime restore-stub slots")
	workers := flag.Int("workers", 0, "worker goroutines for one squash (0 = one per CPU); output is byte-identical at any count")
	noPool := flag.Bool("nopool", false, "disable buffer pooling in the pipeline and the daemon's request scratch (identical output)")
	flag.Parse()
	if *noPool {
		core.SetPooling(false)
		serve.SetPooling(false)
	}

	switch {
	case *listen != "" && *connect != "":
		fail(fmt.Errorf("-listen and -connect are mutually exclusive"))
	case *listen != "":
		runServer(*listen, serve.Options{
			Workers:      *srvWorkers,
			Timeout:      *timeout,
			CacheEntries: *cacheEntries,
			CacheBytes:   *cacheBytes,
			PrepCacheDir: *prepDir,
		}, *metricsAddr, *traceOut, *record)
	case *connect != "":
		conf := core.Config{
			Theta:                   *theta,
			BufferSafe:              !*noBufferSafe,
			Unswitch:                !*noUnswitch,
			MTF:                     *mtf,
			Coder:                   coderID(*coder),
			Interpret:               *interpret,
			CompileTimeRestoreStubs: *ctStubs,
			StubCapacity:            *stubCap,
			Workers:                 *workers,
		}
		conf.Regions.K = *k
		conf.Regions.Gamma = *gamma
		conf.Regions.Pack = !*noPack
		if *loopAware {
			conf.Regions.Strategy = regions.StrategyLoopAware
		}
		runClient(*connect, clientArgs{
			stats: *stats, ping: *ping,
			bench: *bench, scale: *scale,
			batch: *batch, outDir: *outDir,
			profIn: *profIn, out: *out, conf: conf,
			noImage: *noImage,
		})
	default:
		fmt.Fprintln(os.Stderr, "usage: squashd -listen ADDR [server flags]")
		fmt.Fprintln(os.Stderr, "       squashd -connect ADDR (-stats | -ping | -bench NAME | -batch ITEMS | -profile prog.prof prog.o) [squash flags]")
		os.Exit(2)
	}
}

func runServer(addr string, opts serve.Options, metricsAddr, traceOut, recordPath string) {
	rec := &obs.Recorder{Metrics: obs.NewRegistry()}
	if traceOut != "" {
		rec.Trace = obs.NewTracer()
	}
	opts.Obs = rec

	if recordPath != "" {
		f, err := os.OpenFile(recordPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		opts.Record = serve.NewStreamRecorder(f)
		fmt.Fprintf(os.Stderr, "squashd: recording request stream to %s\n", recordPath)
	}

	s := serve.NewServer(opts)
	ln, err := serve.Listen(addr)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "squashd: listening on %s\n", addr)

	var httpSrv *http.Server
	if metricsAddr != "" {
		httpSrv = &http.Server{Addr: metricsAddr, Handler: metricsMux(s)}
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "squashd: metrics server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "squashd: metrics and pprof on http://%s\n", metricsAddr)
	}

	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "squashd: %s, draining in-flight requests\n", got)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr := s.Shutdown(ctx)
		if httpSrv != nil {
			httpSrv.Shutdown(ctx)
		}
		writeTrace(rec, traceOut)
		if shutdownErr != nil {
			fmt.Fprintf(os.Stderr, "squashd: shutdown: %v\n", shutdownErr)
			os.Exit(1)
		}
		<-serveDone
	case err := <-serveDone:
		writeTrace(rec, traceOut)
		if err != nil && err != serve.ErrServerClosed {
			fail(err)
		}
	}
}

// metricsMux exposes the daemon's registry in both export formats plus the
// standard pprof handlers (explicitly wired: the mux is private, so the
// net/http/pprof side effects on DefaultServeMux don't apply).
func metricsMux(s *serve.Server) *http.ServeMux {
	reg := s.Obs().Metrics
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeTrace dumps the accumulated spans as Chrome trace-event JSON and
// prints the human-readable tree to stderr. No-op without -trace.
func writeTrace(rec *obs.Recorder, path string) {
	if path == "" || rec.Trace == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "squashd: trace: %v\n", err)
		return
	}
	defer f.Close()
	if err := rec.Trace.WriteChrome(f); err != nil {
		fmt.Fprintf(os.Stderr, "squashd: trace: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "squashd: wrote trace to %s\n%s", path, rec.Trace.Summary())
}

type clientArgs struct {
	stats, ping   bool
	bench         string
	scale         float64
	batch, outDir string
	profIn, out   string
	conf          core.Config
	noImage       bool
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
		if flag.NArg() != 1 || a.profIn == "" {
			fail(fmt.Errorf("client squash needs -profile and one object argument"))
		}
		objBytes, err := os.ReadFile(flag.Arg(0))
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
			name = flag.Arg(0) + ".sqz.exe"
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

func coderID(name string) int {
	switch name {
	case "stream":
		return core.CoderStream
	case "lz":
		return core.CoderLZ
	default:
		fail(fmt.Errorf("unknown coder %q (want stream or lz)", name))
		return 0
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "squashd:", err)
	os.Exit(1)
}
