package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/race"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
)

// TestRecordedReplayLoadGate is the daemon's end-to-end throughput check.
// A squashd started with a record path serves a batch frame whose two
// inline items (the same object twice, the repeat shared within the batch)
// are byte-identical to one-shot squash, plus a named benchmark. A seeded
// mix of bench and inline requests is recorded, then replayed at twice the
// recorded rate over 4 connections, inline entries carrying the adpcm
// object. The replay must hold the load gate: at least 3 req/s, p50 at most
// 2 s, p99 at most 10 s, a result-cache hit rate of at least 0.2, and no
// failed request. SIGTERM then drains the daemon with a nil return. The
// three speed bounds were set for an uninstrumented build: under the race
// detector the replay reads 4-7 req/s on 2 CPUs, too close to its floor to
// mean anything, so a -race run checks only the hit rate and errors.
func TestRecordedReplayLoadGate(t *testing.T) {
	p := adpcm(t)
	// Prepare the named benchmark up front (the preparation cache is
	// process-wide), so the recorded arrival gaps are the mix's own and not
	// one preparation's.
	if _, _, err := experiments.PrepareSpec("adpcm", 1, ""); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	objPath, profPath := writeInputs(t, p, dir)
	addr := "unix:" + filepath.Join(dir, "squashd.sock")
	streamPath := filepath.Join(dir, "stream.jsonl")
	stop := servetest.Start(t, addr, func() error {
		return runServer(addr, serve.Options{Workers: 4, Timeout: 2 * time.Minute, Logf: t.Logf}, "", "", streamPath)
	})
	conf := core.DefaultConfig()

	item := objPath + ":" + profPath
	out := servetest.CaptureStdout(t, func() {
		runClient(addr, clientArgs{batch: item + "," + item + ",adpcm", scale: 1, outDir: dir, conf: conf})
	})
	want := oneShot(t, p, conf, nil)
	for _, name := range []string{"batch-00.sqz.exe", "batch-01.sqz.exe"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s differs from one-shot squash (err=%v)", name, err)
		}
	}
	if !strings.Contains(out, "shared in batch") {
		t.Fatalf("duplicate batch item was not served as a within-batch share:\n%s", out)
	}

	seed := filepath.Join(dir, "seed.sqz.exe")
	servetest.CaptureStdout(t, func() {
		for i := 0; i < 3; i++ {
			runClient(addr, clientArgs{bench: "adpcm", scale: 1, out: seed, conf: conf})
		}
		runClient(addr, clientArgs{profIn: profPath, out: seed, conf: conf, args: []string{objPath}})
	})
	f, err := os.Open(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := serve.ReadStream(f)
	f.Close()
	if err != nil || len(entries) == 0 {
		t.Fatalf("the record path holds no stream (%d entries, err=%v)", len(entries), err)
	}

	rep, err := serve.Replay(serve.LoadOptions{
		Addr: addr, Conns: 4, Rate: 2,
		FallbackObj: p.objBytes, FallbackProfile: p.profBytes,
	}, entries)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	t.Logf("replayed %d requests: %.1f req/s, p50 %.1f ms, p99 %.1f ms, hit rate %.2f",
		rep.Requests, rep.ReqPerSec, rep.Latency.P50, rep.Latency.P99, rep.CacheHitRate)
	for _, g := range []struct {
		name  string
		ok    bool
		speed bool
	}{
		{"req/s >= 3", rep.ReqPerSec >= 3, true},
		{"p50 <= 2000 ms", rep.Latency.P50 <= 2000, true},
		{"p99 <= 10000 ms", rep.Latency.P99 <= 10000, true},
		{"cache hit rate >= 0.2", rep.CacheHitRate >= 0.2, false},
		{"0 errors", rep.Errors == 0, false},
	} {
		if g.speed && race.Enabled {
			t.Logf("load gate %s not checked under the race detector", g.name)
			continue
		}
		if !g.ok {
			t.Errorf("load gate %s failed: %+v", g.name, rep)
		}
	}
	if err := stop(); err != nil {
		t.Fatalf("daemon did not drain cleanly on SIGTERM: %v", err)
	}
}
