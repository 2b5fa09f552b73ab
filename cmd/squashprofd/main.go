// Command squashprofd is the continuous-profiling collector daemon. It
// speaks the squashd wire protocol and answers the
// profile-plane ops: fleets running em-run -profile-push ship their
// execution profiles here; the daemon aggregates them per image in a
// persistent store with a decaying window, measures drift against each
// image's squash-time profile, and re-squashes through a squashd backend
// (or in-process) when drift crosses the threshold — verifying that the new
// image is output-identical and recording before/after buffer-miss rates.
//
// Server:
//
//	squashprofd -listen tcp:127.0.0.1:7080 -store /var/lib/squashprofd \
//	    -squash tcp:127.0.0.1:7070 -resquash-threshold 0.25 -metrics-addr :9091
//
// Client:
//
//	squashprofd -connect tcp:127.0.0.1:7080 -register img.sqz.exe -obj prog.o -prof prog.prof -input run.in
//	squashprofd -connect tcp:127.0.0.1:7080 -status -json
//	squashprofd -connect tcp:127.0.0.1:7080 -resquash KEY -force -o new.sqz.exe
//	squashprofd -connect tcp:127.0.0.1:7080 -ping
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/profilefeed"
	"repro/internal/serve"
	"repro/internal/serve/daemon"
)

func main() {
	// Mode selection.
	listen := flag.String("listen", "", "serve on this address (unix:/path or tcp:host:port)")
	connect := flag.String("connect", "", "act as a client of the collector at this address")

	// Server options.
	store := flag.String("store", "", "persistent per-image store directory (required with -listen)")
	squashAddr := flag.String("squash", "", "squashd backend address for re-squashes (empty = in-process pipeline, byte-identical)")
	threshold := flag.Float64("resquash-threshold", 0, "drift score that triggers an automatic re-squash (0 disables the automatic trigger)")
	minSamples := flag.Uint64("min-samples", 1, "pushes required in the live window before an automatic re-squash")
	cooldown := flag.Duration("cooldown", time.Minute, "minimum interval between automatic re-squashes of one image")
	halfLife := flag.Duration("decay-half-life", 0, "live-window half-life (0 = no decay)")
	maxInput := flag.Int("max-input-bytes", profilefeed.DefaultMaxInputBytes, "cap on pushed input bytes retained per image")
	outDir := flag.String("out-dir", "", "also write each re-squashed image here as <key>.sqz.exe")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus), /metrics.json, and /debug/pprof on this host:port")

	// Client requests.
	ping := flag.Bool("ping", false, "client: check collector liveness")
	register := flag.String("register", "", "client: register this squashed image with the collector")
	objPath := flag.String("obj", "", "client: object file the image was squashed from (with -register)")
	profPath := flag.String("prof", "", "client: object-space profile the image was squashed with (with -register)")
	inputPath := flag.String("input", "", "client: representative input for the baseline/verification runs (with -register)")
	status := flag.Bool("status", false, "client: print per-image aggregation status")
	asJSON := flag.Bool("json", false, "client: print -status as JSON")
	resquash := flag.String("resquash", "", "client: re-squash the image with this key using the live merged profile")
	force := flag.Bool("force", false, "client: re-squash even below the drift threshold")
	out := flag.String("o", "", "client: write the re-squashed image here")

	// Squash configuration for -register, shared with cmd/squash: the exact
	// config the image was squashed with, reused verbatim on re-squash.
	conf := core.BindFlags(flag.CommandLine)
	flag.Parse()

	switch {
	case *listen != "" && *connect != "":
		fail(fmt.Errorf("-listen and -connect are mutually exclusive"))
	case *listen != "":
		if *store == "" {
			fail(fmt.Errorf("-listen requires -store"))
		}
		err := runServer(*listen, profilefeed.Options{
			Dir:           *store,
			SquashAddr:    *squashAddr,
			Threshold:     *threshold,
			MinSamples:    *minSamples,
			Cooldown:      *cooldown,
			DecayHalfLife: *halfLife,
			MaxInputBytes: *maxInput,
			OutDir:        *outDir,
		}, *metricsAddr)
		if err != nil {
			fail(err)
		}
	case *connect != "":
		runClient(*connect, clientArgs{
			ping: *ping, register: *register, objPath: *objPath, profPath: *profPath,
			inputPath: *inputPath, status: *status, asJSON: *asJSON,
			resquash: *resquash, force: *force, out: *out, conf: *conf,
		})
	default:
		fmt.Fprintln(os.Stderr, "usage: squashprofd -listen ADDR -store DIR [server flags]")
		fmt.Fprintln(os.Stderr, "       squashprofd -connect ADDR (-ping | -status [-json] | -register IMG -obj OBJ -prof PROF [-input IN] [squash flags] | -resquash KEY [-force] [-o OUT])")
		os.Exit(2)
	}
}

// runServer runs the collector until SIGTERM has drained it.
func runServer(addr string, opts profilefeed.Options, metricsAddr string) error {
	col, err := profilefeed.NewCollector(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "squashprofd: store %s\n", opts.Dir)
	return daemon.Run(serve.NewServer(serve.Options{Handler: col.Handle, Obs: col.Obs()}), []string{addr}, metricsAddr)
}

type clientArgs struct {
	ping              bool
	register          string
	objPath, profPath string
	inputPath         string
	status, asJSON    bool
	resquash          string
	force             bool
	out               string
	conf              core.Config
}

func runClient(addr string, a clientArgs) {
	cl, err := serve.DialClient(addr)
	if err != nil {
		fail(err)
	}
	defer cl.Close()

	switch {
	case a.ping:
		start := time.Now()
		must(cl.Do(&serve.Request{Op: serve.OpPing}))
		fmt.Printf("squashprofd at %s is up (%s)\n", addr, time.Since(start).Round(time.Microsecond))

	case a.register != "":
		if a.objPath == "" || a.profPath == "" {
			fail(fmt.Errorf("-register needs -obj and -prof"))
		}
		img := mustRead(a.register)
		obj := mustRead(a.objPath)
		prof := mustRead(a.profPath)
		var input []byte
		if a.inputPath != "" {
			input = mustRead(a.inputPath)
		}
		resp := must(cl.Do(&serve.Request{
			Op: serve.OpProfileRegister, Image: img, Obj: obj, Profile: prof,
			Input: input, Config: &a.conf,
		}))
		fmt.Printf("registered %s as %s\n", a.register, resp.ImageKey)
		printFeed(resp.Feed)

	case a.status:
		resp := must(cl.Do(&serve.Request{Op: serve.OpProfileStatus}))
		if a.asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(resp.Feed); err != nil {
				fail(err)
			}
			return
		}
		printFeed(resp.Feed)

	case a.resquash != "":
		resp := must(cl.Do(&serve.Request{
			Op: serve.OpProfileResquash, ImageKey: a.resquash, Force: a.force,
		}))
		r := resp.Resquash
		fmt.Printf("re-squashed %.12s -> %.12s (drift %.4f, forced %v)\n", a.resquash, r.NewKey, r.DriftScore, r.Forced)
		fmt.Printf("  output identical: %v; miss rate %.6f -> %.6f; evictions %d -> %d\n",
			r.OutputOK, r.MissBefore, r.MissAfter, r.EvictBefore, r.EvictAfter)
		if a.out != "" && len(resp.Image) > 0 {
			if err := os.WriteFile(a.out, resp.Image, 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("  wrote %s (%d bytes)\n", a.out, len(resp.Image))
		}

	default:
		fail(fmt.Errorf("client needs one of -ping, -status, -register, -resquash"))
	}
}

func printFeed(f *serve.FeedSnapshot) {
	if f == nil {
		return
	}
	for _, im := range f.Images {
		cur := ""
		if im.CurrentKey != im.Key {
			cur = fmt.Sprintf(" -> %.12s", im.CurrentKey)
		}
		fmt.Printf("%.12s%s  θ=%g samples=%d base=%d live=%d drift=%.4f (cold-excess %.4f, tv %.4f) threshold=%g resquashes=%d\n",
			im.Key, cur, im.Theta, im.Samples, im.BaseWeight, im.LiveWeight,
			im.Drift.Score, im.Drift.ColdExcess, im.Drift.HotMassTV, im.Threshold, im.Resquashes)
	}
}

func mustRead(path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	return data
}

func must(resp *serve.Response, err error) *serve.Response {
	if err != nil {
		fail(err)
	}
	if !resp.OK {
		fail(fmt.Errorf("collector: %s", resp.Err))
	}
	return resp
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "squashprofd:", err)
	os.Exit(1)
}
