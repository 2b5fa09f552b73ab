package cluster

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
)

// TestClusterReplay is the router tier's end-to-end check on a recorded
// stream. A seeded mix of three keys (the adpcm and g721_enc benchmarks
// prepared server-side, plus an inline object), four arrivals each, is
// recorded by one daemon. Replayed at twice its rate:
//   - against a fresh 3-backend cluster, every backend that owns a key keeps
//     a result-cache hit rate of at least a fresh single daemon's hit rate
//     on the same replay, less 0.02;
//   - a batch of the inline object twice and the adpcm benchmark, through
//     the router, is byte-identical to one-shot squash and to a backend's
//     direct answer, with the repeat shared within the batch.
//
// Then the busiest backend is killed a third of the way into a real-time
// replay: no request fails, the survivors still answer byte-identically,
// and the killed backend is marked down.
func TestClusterReplay(t *testing.T) {
	conf := core.DefaultConfig()
	obj, prof, want := buildWorkload(t, 3, conf)
	// Prepare both benchmarks up front (the preparation cache is shared by
	// every daemon in the process), so the recorded arrival gaps are the
	// mix's own and not one preparation's.
	for _, name := range []string{"adpcm", "g721_enc"} {
		if _, _, err := experiments.PrepareSpec(name, 1, ""); err != nil {
			t.Fatal(err)
		}
	}

	var stream bytes.Buffer
	recAddr, recStop := servetest.Serve(t, serve.Options{Workers: 2, Record: serve.NewStreamRecorder(&stream)})
	mix := []*serve.Request{
		{Op: serve.OpBench, Bench: "adpcm", Scale: 1},
		{Op: serve.OpBench, Bench: "g721_enc", Scale: 1},
		{Op: serve.OpSquash, Obj: obj, Profile: prof},
	}
	for round := 0; round < 4; round++ {
		for _, req := range mix {
			mustDo(t, recAddr, req)
		}
		time.Sleep(100 * time.Millisecond)
	}
	recStop()
	entries, err := serve.ReadStream(&stream)
	if err != nil || len(entries) != 4*len(mix) {
		t.Fatalf("recorded %d arrivals (err=%v), want %d", len(entries), err, 4*len(mix))
	}
	replay := func(addr string, rate float64) *serve.LoadReport {
		t.Helper()
		rep, err := serve.Replay(serve.LoadOptions{
			Addr: addr, Conns: 2, Rate: rate, FallbackObj: obj, FallbackProfile: prof,
		}, entries)
		if err != nil {
			t.Fatalf("replay against %s: %v", addr, err)
		}
		if rep.Errors != 0 {
			t.Fatalf("replay against %s: %d of %d requests failed", addr, rep.Errors, rep.Requests)
		}
		return rep
	}

	baseAddr, baseStop := servetest.Serve(t, serve.Options{Workers: 6})
	base := replay(baseAddr, 2).CacheHitRate
	baseStop()

	addr, r, backendStops := startCluster(t, 3, Config{
		CheckInterval: 50 * time.Millisecond,
		CheckTimeout:  time.Second,
		FailAfter:     2,
	})
	replay(addr, 2)
	busiest := 0
	backends := r.clusterSnapshot().Backends
	for i, b := range backends {
		st := mustDo(t, b.Addr, &serve.Request{Op: serve.OpStats}).Server
		lookups := st.SquashCacheHits + st.SquashCacheMisses
		if lookups == 0 {
			continue // owns none of the three keys
		}
		if rate := float64(st.SquashCacheHits) / float64(lookups); rate < base-0.02 {
			t.Errorf("backend %d hit rate %.3f is below the single-daemon baseline %.3f", i, rate, base)
		}
		if b.Requests > backends[busiest].Requests {
			busiest = i
		}
	}

	benchReq := &serve.Request{Op: serve.OpBench, Bench: "adpcm", Scale: 1}
	wantBench := mustDo(t, backends[(busiest+1)%3].Addr, benchReq).Image
	batch := func(items ...serve.BatchItem) []serve.BatchResult {
		t.Helper()
		return mustDo(t, addr, &serve.Request{Op: serve.OpBatch, Items: items}).Results
	}
	inline := serve.BatchItem{Obj: obj, Profile: prof}
	bench := serve.BatchItem{Bench: "adpcm", Scale: 1}
	res := batch(inline, inline, bench)
	for i, w := range [][]byte{want, want, wantBench} {
		if !res[i].OK || !bytes.Equal(res[i].Image, w) {
			t.Fatalf("routed batch item %d: ok=%v, byte-identical=%v", i, res[i].OK, bytes.Equal(res[i].Image, w))
		}
	}
	if !res[1].Shared {
		t.Error("the repeated batch item lost its within-batch share across the router")
	}

	span := time.Duration(entries[len(entries)-1].TMs * float64(time.Millisecond))
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(span / 3)
		backendStops[busiest]()
	}()
	replay(addr, 1)
	<-killed
	res = batch(inline, bench)
	for i, w := range [][]byte{want, wantBench} {
		if !res[i].OK || !bytes.Equal(res[i].Image, w) {
			t.Fatalf("after the kill, routed batch item %d: ok=%v, byte-identical=%v", i, res[i].OK, bytes.Equal(res[i].Image, w))
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.clusterSnapshot().Backends[busiest].State != StateDown {
		if time.Now().After(deadline) {
			t.Fatalf("killed backend %d never marked down", busiest)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// mustDo sends one request to the daemon at addr and fails the test unless
// it succeeds.
func mustDo(t *testing.T, addr string, req *serve.Request) *serve.Response {
	t.Helper()
	c, err := serve.DialClient(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer c.Close()
	resp, err := c.Do(req)
	if err != nil || !resp.OK {
		t.Fatalf("%s to %s: err=%v resp=%s", req.Op, addr, err, respErr(resp))
	}
	return resp
}
