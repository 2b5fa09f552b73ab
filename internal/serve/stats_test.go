package serve

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestLatencyEmptyAndTinyWindows hardens the percentile summary against the
// degenerate windows a fresh or barely-used daemon has: an empty window must
// report all zeros (never NaN), and a single sample must be every quantile.
func TestLatencyEmptyAndTinyWindows(t *testing.T) {
	m := newMetrics(obs.NewRegistry())

	s := m.snapshot()
	lat := s.Latency
	if lat.Count != 0 || lat.P50 != 0 || lat.P90 != 0 || lat.P99 != 0 || lat.Max != 0 {
		t.Fatalf("empty window: want all-zero latency, got %+v", lat)
	}
	for _, v := range []float64{lat.P50, lat.P90, lat.P99, lat.Max, s.UptimeSec} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("empty window produced non-finite value: %+v", lat)
		}
	}

	m.begin(OpPing)
	m.end(5*time.Millisecond, false, false)
	lat = m.snapshot().Latency
	if lat.Count != 1 {
		t.Fatalf("one sample: count = %d", lat.Count)
	}
	for _, v := range []float64{lat.P50, lat.P90, lat.P99, lat.Max} {
		if v != 5 {
			t.Fatalf("one sample: every quantile should be 5ms, got %+v", lat)
		}
	}

	// A second, slower request moves the upper quantiles but not the median.
	m.begin(OpPing)
	m.end(15*time.Millisecond, true, true)
	s = m.snapshot()
	lat = s.Latency
	if lat.Count != 2 || lat.P50 != 5 || lat.Max != 15 {
		t.Fatalf("two samples: got %+v", lat)
	}
	if s.Errors != 1 || s.Timeouts != 1 {
		t.Fatalf("error/timeout counters: got %+v", s)
	}
}

// TestUnknownOpsBounded: op spellings are client-chosen, so counting each
// one under its own label would let a client grow the stats map and the
// metrics registry without bound. Many distinct bogus ops sent over a
// socket must all land under one "unknown" label, next to the known ops'
// counts.
func TestUnknownOpsBounded(t *testing.T) {
	s, addr, stop := startServer(t, Options{Workers: 1})
	defer stop()
	c, err := DialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const bogus = 500
	for i := 0; i < bogus; i++ {
		resp, err := c.Do(&Request{Op: fmt.Sprintf("bogus-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK {
			t.Fatalf("bogus op %d answered OK", i)
		}
	}
	if _, err := c.Do(&Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(&Request{Op: OpStats})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{opUnknown: bogus, OpPing: 1, OpStats: 1}
	if got := resp.Server.Requests; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Snapshot.Requests = %v, want %v", got, want)
	}
	if resp.Server.Errors != bogus {
		t.Errorf("errors = %d, want %d", resp.Server.Errors, bogus)
	}
	n := 0
	for _, cs := range s.Obs().Metrics.Snapshot().Counters {
		if cs.Name == "squashd_requests_total" {
			n++
		}
	}
	if n > len(knownOps)+1 {
		t.Errorf("%d squashd_requests_total counters after %d bogus ops, want at most %d", n, bogus, len(knownOps)+1)
	}
}
