package serve

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/race"
)

// TestReplayRoundTrip: requests recorded from a live server replay against
// it, inline entries resolving through the fallback payload, and the
// report accounts for every entry: its header, throughput, latency
// distribution and cache rate, and the replayed batch entry reaches the
// server as one batch frame of two objects.
func TestReplayRoundTrip(t *testing.T) {
	conf := core.DefaultConfig()
	obj, prof, _ := buildWorkload(t, 7, conf)

	var rec syncBuffer
	s, addr, stop := startServer(t, Options{Workers: 2, Record: NewStreamRecorder(&rec)})
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

	before := s.StatsSnapshot()
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
	if rep.Concurrency != 2 || rep.Rate != 100 {
		t.Errorf("report header wrong: %+v", rep)
	}
	if rep.Requests != 4 || rep.Objects != 5 || rep.Skipped != 0 {
		t.Errorf("requests/objects/skipped = %d/%d/%d, want 4/5/0", rep.Requests, rep.Objects, rep.Skipped)
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
	// Everything replayed was already computed during seeding.
	if rep.CacheHitRate != 1 {
		t.Errorf("cache hit rate %.2f on a fully warm replay", rep.CacheHitRate)
	}
	after := s.StatsSnapshot()
	if frames, objs := after.BatchFrames-before.BatchFrames, after.BatchObjects-before.BatchObjects; frames != 1 || objs != 2 {
		t.Errorf("server saw %d batch frames / %d objects from the replay, want 1/2", frames, objs)
	}
}

// TestReplayRequest: each recorded entry shape turns back into the request
// it stood for. Inline entries take the fallback bench at scale 1, batch
// items carry the entry's config, a recorded stats-only flag survives, and
// an op the recorder never writes is skipped.
func TestReplayRequest(t *testing.T) {
	conf := core.DefaultConfig()
	conf.Theta = 0.01
	o := &LoadOptions{FallbackBench: "adpcm"}

	req, objects, ok := o.replayRequest(&RecordEntry{Op: OpSquash, Key: "deadbeef", Config: &conf, NoImage: true})
	if !ok || objects != 1 {
		t.Fatalf("inline squash entry: ok=%v objects=%d", ok, objects)
	}
	if req.Op != OpBench || req.Bench != "adpcm" || req.Scale != 1 || req.Config != &conf || !req.NoImage {
		t.Errorf("inline squash entry replays as %+v, want bench adpcm at scale 1 with the entry's config, stats-only", req)
	}

	req, objects, ok = o.replayRequest(&RecordEntry{Op: OpBatch, Config: &conf, Items: []RecordItem{
		{Key: "deadbeef"}, {Bench: "gsm", Scale: 0.5},
	}})
	if !ok || objects != 2 || req.Op != OpBatch || len(req.Items) != 2 || req.NoImage {
		t.Fatalf("batch entry: ok=%v objects=%d req=%+v", ok, objects, req)
	}
	for i, want := range []BatchItem{{Bench: "adpcm", Scale: 1}, {Bench: "gsm", Scale: 0.5}} {
		it := req.Items[i]
		if it.Bench != want.Bench || it.Scale != want.Scale || it.Config != &conf {
			t.Errorf("batch item %d replays as %+v, want %s at scale %g with the entry's config", i, it, want.Bench, want.Scale)
		}
	}

	if req, _, ok := o.replayRequest(&RecordEntry{Op: OpBench, Bench: "gsm", Scale: 2, NoImage: true}); !ok || !req.NoImage || req.Bench != "gsm" || req.Scale != 2 {
		t.Errorf("bench entry: ok=%v req=%+v", ok, req)
	}
	if _, _, ok := o.replayRequest(&RecordEntry{Op: OpStats}); ok {
		t.Error("an op the recorder never writes was replayed")
	}
}

// TestReplayLatencyCoversWholeRun: the latency window holds every answer of
// a replay, so a slow first answer still sets Max after more than 65 536
// fast ones. A fixed 1<<16 ring reported the tail only.
func TestReplayLatencyCoversWholeRun(t *testing.T) {
	if race.Enabled {
		t.Skip("73 536 requests take ~10 s under the race detector")
	}
	var slowed atomic.Bool
	_, addr, stop := startServer(t, Options{
		Logf: func(string, ...any) {},
		Handler: func(req *Request) *Response {
			if req.Op == OpStats {
				return &Response{OK: true, Server: &Snapshot{}}
			}
			if slowed.CompareAndSwap(false, true) {
				time.Sleep(20 * time.Millisecond)
			}
			return &Response{OK: true}
		},
	})
	defer stop()

	entries := make([]RecordEntry, 1<<16+8000)
	for i := range entries {
		entries[i] = RecordEntry{TMs: float64(i) * 0.03, Op: OpBench, Bench: "adpcm"}
	}
	rep, err := Replay(LoadOptions{Addr: addr}, entries)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Errors != 0 || rep.Requests != len(entries) {
		t.Fatalf("errors/requests = %d/%d, want 0/%d", rep.Errors, rep.Requests, len(entries))
	}
	if rep.Latency.Max < 20 {
		t.Errorf("max latency %.2f ms misses the 20 ms first answer: %+v", rep.Latency.Max, rep.Latency)
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
