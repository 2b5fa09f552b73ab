package serve

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSyntheticClosedLoop: a budgeted closed-loop run completes exactly
// its budget, measures latency, and sees the warm cache absorb repeats.
func TestSyntheticClosedLoop(t *testing.T) {
	conf := core.DefaultConfig()
	obj, prof, _ := buildWorkload(t, 3, conf)

	_, addr, stop := startServer(t, Options{Workers: 4})
	defer stop()

	rep, err := Synthetic(LoadOptions{
		Addr:     addr,
		Conns:    3,
		Obj:      obj,
		Profile:  prof,
		Requests: 20,
	})
	if err != nil {
		t.Fatalf("synthetic: %v", err)
	}
	if rep.Mode != "synthetic" || rep.Concurrency != 3 {
		t.Errorf("report header wrong: %+v", rep)
	}
	if rep.Requests != 20 || rep.Objects != 20 {
		t.Errorf("requests/objects = %d/%d, want 20/20", rep.Requests, rep.Objects)
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d", rep.Errors)
	}
	if rep.ReqPerSec <= 0 || rep.DurationSec <= 0 {
		t.Errorf("throughput not measured: %+v", rep)
	}
	if rep.Latency.Max <= 0 || rep.Latency.P50 > rep.Latency.P99 {
		t.Errorf("latency distribution inconsistent: %+v", rep.Latency)
	}
	// 20 requests for one content key: everything after the first
	// computation hits the warm cache.
	if rep.CacheHitRate < 0.5 {
		t.Errorf("cache hit rate %.2f; warm state not reused under load", rep.CacheHitRate)
	}
}

// TestSyntheticBatchMode: BatchSize > 1 sends batch frames and counts
// objects accordingly.
func TestSyntheticBatchMode(t *testing.T) {
	conf := core.DefaultConfig()
	obj, prof, _ := buildWorkload(t, 5, conf)

	s, addr, stop := startServer(t, Options{Workers: 4})
	defer stop()

	rep, err := Synthetic(LoadOptions{
		Addr:      addr,
		Conns:     2,
		Obj:       obj,
		Profile:   prof,
		BatchSize: 4,
		Requests:  5,
	})
	if err != nil {
		t.Fatalf("synthetic batch: %v", err)
	}
	if rep.Requests != 5 || rep.Objects != 20 {
		t.Errorf("requests/objects = %d/%d, want 5/20", rep.Requests, rep.Objects)
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d", rep.Errors)
	}
	if snap := s.StatsSnapshot(); snap.BatchFrames != 5 || snap.BatchObjects != 20 {
		t.Errorf("server saw %d frames / %d objects, want 5/20", snap.BatchFrames, snap.BatchObjects)
	}
}

// TestReplayRoundTrip: requests recorded from a live server replay against
// it, inline entries resolving through the fallback payload, and the
// report accounts for every entry.
func TestReplayRoundTrip(t *testing.T) {
	conf := core.DefaultConfig()
	obj, prof, _ := buildWorkload(t, 7, conf)

	var rec syncBuffer
	_, addr, stop := startServer(t, Options{Workers: 2, Record: NewStreamRecorder(&rec)})
	defer stop()
	cl, err := DialClient(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	// Record a short mix: three one-shots and a batch.
	for i := 0; i < 3; i++ {
		if _, err := cl.Do(&Request{Op: OpSquash, Obj: obj, Profile: prof}); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
	}
	if _, err := cl.Do(&Request{Op: OpBatch, Items: []BatchItem{
		{Obj: obj, Profile: prof}, {Obj: obj, Profile: prof},
	}}); err != nil {
		t.Fatalf("seed batch: %v", err)
	}
	cl.Close()

	entries, err := ReadStream(strings.NewReader(rec.String()))
	if err != nil {
		t.Fatalf("read stream: %v", err)
	}
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(entries))
	}

	rep, err := Replay(LoadOptions{
		Addr:            addr,
		Conns:           2,
		Rate:            100, // the recorded gaps are tiny; collapse them
		FallbackObj:     obj,
		FallbackProfile: prof,
	}, entries)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Mode != "replay" || rep.Rate != 100 {
		t.Errorf("report header wrong: %+v", rep)
	}
	if rep.Requests != 4 || rep.Objects != 5 || rep.Skipped != 0 {
		t.Errorf("requests/objects/skipped = %d/%d/%d, want 4/5/0", rep.Requests, rep.Objects, rep.Skipped)
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d", rep.Errors)
	}
	// Everything replayed was already computed during seeding.
	if rep.CacheHitRate != 1 {
		t.Errorf("cache hit rate %.2f on a fully warm replay", rep.CacheHitRate)
	}
}

// TestReplaySkipsInlineWithoutFallback: inline-only entries cannot replay
// without a payload; an all-inline stream is a loud error, not a silent
// empty run.
func TestReplaySkipsInlineWithoutFallback(t *testing.T) {
	_, addr, stop := startServer(t, Options{Workers: 1})
	defer stop()

	inline := []RecordEntry{{TMs: 0, Op: OpSquash, Key: "deadbeef"}}
	if _, err := Replay(LoadOptions{Addr: addr, Conns: 1}, inline); err == nil {
		t.Fatal("all-inline stream without fallback replayed")
	}

	// A mixed stream replays the bench entry and counts the skip.
	mixed := append([]RecordEntry{{TMs: 0, Op: OpBench, Bench: "no-such-benchmark"}}, inline...)
	rep, err := Replay(LoadOptions{Addr: addr, Conns: 1}, mixed)
	if err != nil {
		t.Fatalf("mixed stream: %v", err)
	}
	if rep.Requests != 1 || rep.Skipped != 1 {
		t.Errorf("requests/skipped = %d/%d, want 1/1", rep.Requests, rep.Skipped)
	}
	// The unknown benchmark fails server-side; that is an error, not a
	// transport problem.
	if rep.Errors != 1 {
		t.Errorf("errors = %d, want 1", rep.Errors)
	}
}

// TestReplayPacing: arrival offsets are honored — replaying two entries
// 300ms apart at 1x takes at least that long, and at high rate far less.
func TestReplayPacing(t *testing.T) {
	_, addr, stop := startServer(t, Options{Workers: 1})
	defer stop()

	entries := []RecordEntry{
		{TMs: 0, Op: OpBench, Bench: "no-such-benchmark"},
		{TMs: 300, Op: OpBench, Bench: "no-such-benchmark"},
	}
	start := time.Now()
	if _, err := Replay(LoadOptions{Addr: addr, Conns: 2, Rate: 1}, entries); err != nil {
		t.Fatalf("replay 1x: %v", err)
	}
	if d := time.Since(start); d < 250*time.Millisecond {
		t.Errorf("1x replay of a 300ms stream finished in %s; schedule not honored", d)
	}

	start = time.Now()
	if _, err := Replay(LoadOptions{Addr: addr, Conns: 2, Rate: 10}, entries); err != nil {
		t.Fatalf("replay 10x: %v", err)
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Errorf("10x replay of a 300ms stream took %s; rate not applied", d)
	}
}
