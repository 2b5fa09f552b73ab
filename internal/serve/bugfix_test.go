package serve

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestResultCacheByteBudget: with a byte budget set, the cache bounds
// total resident bytes — not just entry count — and the totals put reports
// stay accurate across multi-entry evictions. The requests here carry empty
// payloads, so the resident bytes are the images alone (blob accounting is
// TestResultCacheBytesCountBlobsOnce).
func TestResultCacheByteBudget(t *testing.T) {
	img := func(n int) []byte { return make([]byte, n) }

	// Entry cap far above what the byte budget admits: eviction pressure
	// comes from bytes alone.
	c := newResultCache(100, 1000)
	key := func(i byte) requestID { return confID(c, i) }
	put := func(i byte, image []byte) (int, int64) {
		id := key(i)
		return c.put(&id, image, core.Stats{}, core.Footprint{})
	}
	has := func(i byte) bool {
		id := key(i)
		_, ok := c.get(&id)
		return ok
	}
	for i := byte(1); i <= 10; i++ {
		entries, bytes := put(i, img(300))
		if bytes > 1000 {
			t.Fatalf("after put %d: %d resident bytes exceed the 1000-byte budget", i, bytes)
		}
		if wantE, wantB := c.size(); entries != wantE || bytes != wantB {
			t.Fatalf("put reported (%d, %d), size() reports (%d, %d)", entries, bytes, wantE, wantB)
		}
	}
	// 300-byte images under a 1000-byte budget: exactly 3 fit.
	if entries, bytes := c.size(); entries != 3 || bytes != 900 {
		t.Fatalf("steady state = (%d entries, %d bytes), want (3, 900)", entries, bytes)
	}
	if !has(10) {
		t.Fatal("newest entry missing")
	}
	if has(7) {
		t.Fatal("entry beyond the byte budget survived")
	}

	// One large insert must evict several residents at once, and the totals
	// returned from that single put must already reflect all of them.
	entries, bytes := put(11, img(900))
	if entries != 1 || bytes != 900 {
		t.Fatalf("multi-entry eviction left (%d entries, %d bytes), want (1, 900)", entries, bytes)
	}

	// An image larger than the whole budget is refused outright: admitting
	// it would flush the cache and still bust the budget.
	entries, bytes = put(12, img(1001))
	if entries != 1 || bytes != 900 {
		t.Fatalf("oversized insert changed totals to (%d, %d), want (1, 900) unchanged", entries, bytes)
	}
	if has(12) {
		t.Fatal("an image larger than the whole budget was cached")
	}

	// Zero budget keeps the old entry-count-only behavior.
	c = newResultCache(2, 0)
	put(1, img(1<<20))
	put(2, img(1<<20))
	if entries, _ := c.size(); entries != 2 {
		t.Fatalf("unbudgeted cache holds %d entries, want 2", entries)
	}
}

// TestStatsSnapshotConsistent: latency count and percentiles must come
// from one consistent histogram view. The old code read Quantiles and
// WindowCount in two calls; a first sample landing between them yielded
// count=1 with all-zero percentiles. Every observation here is the same
// value, so any snapshot with a count must report exactly that value.
func TestStatsSnapshotConsistent(t *testing.T) {
	m := newMetrics(obs.NewRegistry())
	const val = 5.0
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					m.lat.Observe(val)
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		s := m.snapshot()
		if s.Latency.Count > 0 && (s.Latency.P50 != val || s.Latency.Max != val) {
			close(stop)
			wg.Wait()
			t.Fatalf("torn snapshot: count=%d p50=%g max=%g, want %g everywhere",
				s.Latency.Count, s.Latency.P50, s.Latency.Max, val)
		}
	}
	close(stop)
	wg.Wait()
}

// TestBenchPrepErrorCounts: a failed benchmark preparation must still
// count as a prep-cache miss (errored requests stay in the hit-rate
// denominator) and increment the dedicated prep-error counter.
func TestBenchPrepErrorCounts(t *testing.T) {
	s, addr, stop := startServer(t, Options{Workers: 1})
	defer stop()

	c, err := DialClient(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	resp, err := c.Do(&Request{Op: OpBench, Bench: "no-such-benchmark"})
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	if resp.OK || !strings.Contains(resp.Err, "no-such-benchmark") {
		t.Fatalf("response = %+v, want an error naming the benchmark", resp)
	}

	snap := s.StatsSnapshot()
	if snap.PrepCacheMisses != 1 {
		t.Fatalf("prep cache misses = %d, want 1 (errored prep must count as a miss)", snap.PrepCacheMisses)
	}
	if snap.PrepErrors != 1 {
		t.Fatalf("prep errors = %d, want 1", snap.PrepErrors)
	}
	if snap.PrepCacheHits != 0 {
		t.Fatalf("prep cache hits = %d, want 0", snap.PrepCacheHits)
	}
}
