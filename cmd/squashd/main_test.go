package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/mediabench"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/vm"
)

// program is the adpcm MediaBench program taken through emit → assemble →
// profile, with its output on the timing input as the reference behaviour.
type program struct {
	obj                 *objfile.Object
	counts              profile.Counts
	objBytes, profBytes []byte
	timing, wantOut     []byte
}

var (
	adpcmOnce sync.Once
	adpcmProg *program
)

// adpcm prepares the program once for every test in the package.
func adpcm(t *testing.T) *program {
	t.Helper()
	adpcmOnce.Do(func() { adpcmProg = prepareAdpcm(t) })
	if adpcmProg == nil {
		t.Fatal("adpcm preparation failed")
	}
	return adpcmProg
}

func prepareAdpcm(t *testing.T) *program {
	t.Helper()
	spec, _ := mediabench.SpecByName("adpcm")
	obj, err := asm.Assemble(spec.Generate())
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	m := vm.New(im, spec.ProfilingInput())
	m.EnableProfile()
	if err := m.Run(); err != nil {
		t.Fatalf("profiling run: %v", err)
	}
	base := vm.New(im, spec.TimingInput())
	if err := base.Run(); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	var ob, pb bytes.Buffer
	if _, err := obj.WriteTo(&ob); err != nil {
		t.Fatalf("serialize object: %v", err)
	}
	if _, err := profile.Counts(m.Profile).WriteTo(&pb); err != nil {
		t.Fatalf("serialize profile: %v", err)
	}
	return &program{
		obj: obj, counts: m.Profile, objBytes: ob.Bytes(), profBytes: pb.Bytes(),
		timing: spec.TimingInput(), wantOut: base.Output,
	}
}

// oneShot returns the image cmd/squash writes for p under conf.
func oneShot(t *testing.T, p *program, conf core.Config, rec *obs.Recorder) []byte {
	t.Helper()
	out, err := core.SquashObs(p.obj, p.counts, conf, rec)
	if err != nil {
		t.Fatalf("squash: %v", err)
	}
	var buf bytes.Buffer
	if _, err := out.Image.WriteTo(&buf); err != nil {
		t.Fatalf("serialize image: %v", err)
	}
	return buf.Bytes()
}

// runImage executes a squashed image the way em-run does and returns its
// output.
func runImage(t *testing.T, raw, input []byte) []byte {
	t.Helper()
	im, err := objfile.ReadImage(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("read image: %v", err)
	}
	meta, err := core.UnmarshalMeta(im.Meta)
	if err != nil {
		t.Fatalf("squash metadata: %v", err)
	}
	rt, err := core.NewRuntime(meta)
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	m := vm.New(im, input)
	rt.Install(m)
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m.Output
}

// checkTrace validates a Chrome trace-event JSON document: every complete
// (ph=X) event has a non-negative ts and dur, only X and metadata (ph=M)
// events occur, at least one span exists, and every wanted span is present.
func checkTrace(t *testing.T, data []byte, want ...string) {
	t.Helper()
	var tf struct {
		TraceEvents []struct {
			Name  string   `json:"name"`
			Phase string   `json:"ph"`
			Ts    *float64 `json:"ts"`
			Dur   *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans := map[string]int{}
	for _, ev := range tf.TraceEvents {
		switch ev.Phase {
		case "X":
			if ev.Ts == nil || *ev.Ts < 0 || ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("span %q has a missing or negative ts or dur", ev.Name)
			}
			spans[ev.Name]++
		case "M":
		default:
			t.Fatalf("unexpected trace event phase %q", ev.Phase)
		}
	}
	if len(spans) == 0 {
		t.Fatal("trace has no complete (ph=X) events")
	}
	for _, name := range want {
		if spans[name] == 0 {
			t.Errorf("required span %q absent (have %d span names)", name, len(spans))
		}
	}
}

// checkMetrics validates a metrics JSON snapshot: it parses, and every
// wanted counter is present with a non-zero total.
func checkMetrics(t *testing.T, data []byte, want ...string) {
	t.Helper()
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value uint64 `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics are not valid JSON: %v", err)
	}
	have := map[string]uint64{}
	for _, c := range snap.Counters {
		have[c.Name] += c.Value
	}
	for _, name := range want {
		if have[name] == 0 {
			t.Errorf("required counter %q absent or zero (have %d counters)", name, len(snap.Counters))
		}
	}
}

// TestRunServerMatchesOneShot drives the daemon end to end through
// runServer and runClient: for the default configuration and for θ=1, the
// daemon's image, computed from drained pools, equals one-shot squash and
// runs to the unsquashed program's output, and a repeat request is a
// warm-cache hit with the same bytes. A -noimage request
// writes no file, the stats report the hits, SIGTERM drains the daemon, and
// its trace holds the request and pipeline spans.
func TestRunServerMatchesOneShot(t *testing.T) {
	p := adpcm(t)
	dir := t.TempDir()
	objPath, profPath := writeInputs(t, p, dir)
	addr := "unix:" + filepath.Join(dir, "squashd.sock")
	tracePath := filepath.Join(dir, "squashd.trace.json")
	stop := servetest.Start(t, addr, func() error {
		return runServer(addr, serve.Options{Workers: 4, Timeout: 2 * time.Minute, CacheEntries: 64}, "", tracePath, "")
	})

	squash := func(conf core.Config, out string, noImage bool) string {
		return servetest.CaptureStdout(t, func() {
			runClient(addr, clientArgs{profIn: profPath, out: out, conf: conf, noImage: noImage, args: []string{objPath}})
		})
	}
	theta1 := core.DefaultConfig()
	theta1.Theta = 1.0
	for _, conf := range []core.Config{core.DefaultConfig(), theta1} {
		want := oneShot(t, p, conf, nil)
		first := filepath.Join(dir, "daemon.exe")
		runtime.GC() // two cycles empty every sync.Pool: a fresh-buffer request
		runtime.GC()
		squash(conf, first, false)
		got, err := os.ReadFile(first)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("θ=%g: daemon image differs from one-shot squash", conf.Theta)
		}

		repeat := filepath.Join(dir, "daemon2.exe")
		if out := squash(conf, repeat, false); !strings.Contains(out, "warm cache") {
			t.Fatalf("θ=%g: repeat request did not hit the warm cache: %q", conf.Theta, out)
		}
		if again, err := os.ReadFile(repeat); err != nil || !bytes.Equal(again, got) {
			t.Fatalf("θ=%g: cached image differs from first response (err=%v)", conf.Theta, err)
		}

		if !bytes.Equal(runImage(t, got, p.timing), p.wantOut) {
			t.Fatalf("θ=%g: daemon image's output differs from the unsquashed program's", conf.Theta)
		}
	}

	noImg := filepath.Join(dir, "noimg.exe")
	if out := squash(core.DefaultConfig(), noImg, true); !strings.Contains(out, "image omitted") {
		t.Fatalf("-noimage response still carried an image: %q", out)
	}
	if _, err := os.Stat(noImg); !os.IsNotExist(err) {
		t.Fatalf("-noimage wrote an image file (stat err=%v)", err)
	}

	var snap serve.Snapshot
	stats := servetest.CaptureStdout(t, func() { runClient(addr, clientArgs{stats: true}) })
	if err := json.Unmarshal([]byte(stats), &snap); err != nil {
		t.Fatalf("stats output: %v", err)
	}
	if snap.SquashCacheHits == 0 {
		t.Fatalf("stats report no warm-cache hits: %s", stats)
	}

	if err := stop(); err != nil {
		t.Fatalf("daemon did not drain cleanly on SIGTERM: %v", err)
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("daemon wrote no trace: %v", err)
	}
	checkTrace(t, trace, "squashd.request", "squash", "region.encode")
}

// writeInputs writes p's object and profile into dir, as the files a
// squashd client reads, and returns their paths.
func writeInputs(t *testing.T, p *program, dir string) (objPath, profPath string) {
	t.Helper()
	objPath, profPath = filepath.Join(dir, "adpcm.o"), filepath.Join(dir, "adpcm.prof")
	for path, data := range map[string][]byte{objPath: p.objBytes, profPath: p.profBytes} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return objPath, profPath
}

// TestMetricsMux: after a squash request, the daemon's metrics listener
// serves Prometheus text on /metrics, the JSON snapshot on /metrics.json,
// and the pprof index, and SIGTERM drains the daemon with a nil return.
func TestMetricsMux(t *testing.T) {
	p := adpcm(t)
	addr := "unix:" + filepath.Join(t.TempDir(), "squashd.sock")
	metricsAddr := servetest.FreeTCPAddr(t)
	stop := servetest.Start(t, addr, func() error {
		return runServer(addr, serve.Options{Workers: 2, Logf: t.Logf}, metricsAddr, "", "")
	})
	cl, err := serve.DialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Do(&serve.Request{Op: serve.OpSquash, Obj: p.objBytes, Profile: p.profBytes})
	cl.Close()
	if err != nil || !resp.OK {
		t.Fatalf("squash: resp=%+v err=%v", resp, err)
	}

	get := func(path string) []byte {
		t.Helper()
		r, err := http.Get("http://" + metricsAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer r.Body.Close()
		body, err := io.ReadAll(r.Body)
		if err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, r.StatusCode, err)
		}
		return body
	}
	prom := string(get("/metrics"))
	for _, name := range []string{"squashd_requests_total", "squashd_request_ms", "squash_runs_total", "pool_workers"} {
		if !strings.Contains(prom, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	checkMetrics(t, get("/metrics.json"), "squashd_requests_total")
	if !strings.Contains(string(get("/debug/pprof/")), "goroutine") {
		t.Error("pprof index did not render")
	}
	if err := stop(); err != nil {
		t.Fatalf("daemon did not drain cleanly on SIGTERM: %v", err)
	}
}

// TestSquashTelemetry: attaching a tracer and metrics to a squash leaves the
// image byte-identical, the Chrome trace carries the pipeline spans, the
// metrics snapshot the squash_* counter families (the per-stream breakdown
// included), the span summary names the root span, and a post-squash heap
// profile is gzipped pprof.
func TestSquashTelemetry(t *testing.T) {
	p := adpcm(t)
	conf := core.DefaultConfig()
	conf.Theta = 1.0
	plain := oneShot(t, p, conf, nil)
	rec := obs.New()
	if !bytes.Equal(oneShot(t, p, conf, rec), plain) {
		t.Fatal("image changed when telemetry was attached")
	}

	var trace, metrics bytes.Buffer
	if err := rec.Trace.WriteChrome(&trace); err != nil {
		t.Fatal(err)
	}
	checkTrace(t, trace.Bytes(), "squash", "cfg.decode", "region.select", "region.encode", "build.link")
	if err := rec.Metrics.WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, metrics.Bytes(), "squash_runs_total", "squash_regions_total",
		"squash_input_bytes_total", "squash_output_bytes_total", "squash_stream_bits_total")
	if !strings.Contains(rec.Trace.Summary(), "squash") {
		t.Error("trace summary missing the root span")
	}

	heap := filepath.Join(t.TempDir(), "heap.pprof")
	if err := obs.WriteHeapProfile(heap); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(heap)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatal("heap profile is not a gzipped pprof file")
	}
}
