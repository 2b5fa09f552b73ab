package serve

import (
	"time"

	"repro/internal/obs"
)

// metrics aggregates the daemon's operational counters in the obs registry,
// which backs the HTTP /metrics exports; snapshot reads the same
// instruments back into the OpStats wire format. All methods are safe for
// concurrent use. Latency comes from the windowed obs histogram, which
// replays the old ring's nearest-rank percentiles exactly and reports
// zeros, never NaN, on an empty or one-sample window.
type metrics struct {
	started time.Time
	// requests holds one counter per known op plus opUnknown, all
	// registered up front: an op spelling a client makes up is counted
	// under opUnknown, so it cannot add a map key or a registry counter.
	requests map[string]*obs.Counter

	lat        *obs.Histogram // "squashd_request_ms", recent-window latency
	inFlight   *obs.Gauge
	errors     *obs.Counter
	timeouts   *obs.Counter
	panics     *obs.Counter
	resHit     *obs.Counter
	resMiss    *obs.Counter
	prepHit    *obs.Counter
	prepMiss   *obs.Counter
	prepErr    *obs.Counter
	resEntries *obs.Gauge
	resBytes   *obs.Gauge

	batchFrames  *obs.Counter
	batchObjects *obs.Counter
	batchShared  *obs.Counter
}

// opUnknown labels every request whose op is not in knownOps.
const opUnknown = "unknown"

func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		started:    time.Now(),
		requests:   map[string]*obs.Counter{},
		lat:        reg.Histogram("squashd_request_ms"),
		inFlight:   reg.Gauge("squashd_in_flight"),
		errors:     reg.Counter("squashd_errors_total"),
		timeouts:   reg.Counter("squashd_timeouts_total"),
		panics:     reg.Counter("squashd_panics_total"),
		resHit:     reg.Counter("squashd_cache_hits_total", obs.L("cache", "result")),
		resMiss:    reg.Counter("squashd_cache_misses_total", obs.L("cache", "result")),
		prepHit:    reg.Counter("squashd_cache_hits_total", obs.L("cache", "prep")),
		prepMiss:   reg.Counter("squashd_cache_misses_total", obs.L("cache", "prep")),
		prepErr:    reg.Counter("squashd_prep_errors_total"),
		resEntries: reg.Gauge("squashd_result_cache_entries"),
		resBytes:   reg.Gauge("squashd_result_cache_bytes"),

		batchFrames:  reg.Counter("squashd_batch_frames_total"),
		batchObjects: reg.Counter("squashd_batch_objects_total"),
		batchShared:  reg.Counter("squashd_batch_shared_total"),
	}
	for _, op := range append(knownOps[:], opUnknown) {
		m.requests[op] = reg.Counter("squashd_requests_total", obs.L("op", op))
	}
	return m
}

func (m *metrics) begin(op string) {
	c, ok := m.requests[op]
	if !ok {
		c = m.requests[opUnknown]
	}
	c.Inc()
	m.inFlight.Add(1)
}

func (m *metrics) end(d time.Duration, failed, timedOut bool) {
	m.inFlight.Add(-1)
	if failed {
		m.errors.Inc()
	}
	if timedOut {
		m.timeouts.Inc()
	}
	m.lat.Observe(float64(d) / float64(time.Millisecond))
}

// panicked records a request whose processing panicked and was answered
// with an error by the panic boundary.
func (m *metrics) panicked() { m.panics.Inc() }

func (m *metrics) squashCache(hit bool) {
	if hit {
		m.resHit.Inc()
	} else {
		m.resMiss.Inc()
	}
}

func (m *metrics) prepCache(hit bool) {
	if hit {
		m.prepHit.Inc()
	} else {
		m.prepMiss.Inc()
	}
}

// prepError records a failed benchmark preparation. The failed lookup has
// already been counted as a prep-cache miss (errored requests must not
// silently drop out of the hit-rate denominator); this counter separates
// "prep ran and failed" from "prep ran cold".
func (m *metrics) prepError() { m.prepErr.Inc() }

// batch records one OpBatch frame: how many objects it carried and how
// many were within-batch duplicates served from a sibling's result.
func (m *metrics) batch(objects, shared int) {
	m.batchFrames.Inc()
	m.batchObjects.Add(uint64(objects))
	m.batchShared.Add(uint64(shared))
}

// Latency summarizes the recent-request latency distribution in
// milliseconds.
type Latency struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50_ms"`
	P90   float64 `json:"p90_ms"`
	P99   float64 `json:"p99_ms"`
	Max   float64 `json:"max_ms"`
}

// Snapshot is the OpStats payload.
type Snapshot struct {
	UptimeSec float64           `json:"uptime_sec"`
	Requests  map[string]uint64 `json:"requests"`
	Errors    uint64            `json:"errors"`
	Timeouts  uint64            `json:"timeouts"`
	InFlight  int               `json:"in_flight"`
	// Panics counts requests whose processing panicked; each got an
	// error response and the daemon kept serving.
	Panics uint64 `json:"panics,omitempty"`

	SquashCacheHits   uint64 `json:"squash_cache_hits"`
	SquashCacheMisses uint64 `json:"squash_cache_misses"`
	PrepCacheHits     uint64 `json:"prep_cache_hits"`
	PrepCacheMisses   uint64 `json:"prep_cache_misses"`
	// PrepErrors counts bench preparations that failed; each also counts
	// as a prep-cache miss so hit-rate denominators include errored
	// requests.
	PrepErrors uint64 `json:"prep_errors,omitempty"`

	// Batch serving: frames received, objects across all frames, and
	// objects answered from a within-batch duplicate.
	BatchFrames  uint64 `json:"batch_frames"`
	BatchObjects uint64 `json:"batch_objects"`
	BatchShared  uint64 `json:"batch_shared"`

	Latency Latency `json:"latency"`
}

func (m *metrics) snapshot() *Snapshot {
	s := &Snapshot{
		UptimeSec:         time.Since(m.started).Seconds(),
		Requests:          map[string]uint64{},
		Errors:            m.errors.Value(),
		Timeouts:          m.timeouts.Value(),
		Panics:            m.panics.Value(),
		InFlight:          int(m.inFlight.Value()),
		SquashCacheHits:   m.resHit.Value(),
		SquashCacheMisses: m.resMiss.Value(),
		PrepCacheHits:     m.prepHit.Value(),
		PrepCacheMisses:   m.prepMiss.Value(),
		PrepErrors:        m.prepErr.Value(),
		BatchFrames:       m.batchFrames.Value(),
		BatchObjects:      m.batchObjects.Value(),
		BatchShared:       m.batchShared.Value(),
	}
	// Ops never requested stay out of the map, as they always have.
	for op, c := range m.requests {
		if n := c.Value(); n > 0 {
			s.Requests[op] = n
		}
	}

	// Percentiles come from the obs histogram's window; an empty window
	// yields an all-zero Latency, matching the pre-telemetry wire format.
	// Count and quantiles come from one histogram snapshot: separate
	// WindowCount/Quantiles calls would let a request landing between them
	// skew count against percentiles in -stats.
	count, qs := m.lat.WindowQuantiles(0.50, 0.90, 0.99, 1.0)
	s.Latency = Latency{
		Count: count,
		P50:   qs[0],
		P90:   qs[1],
		P99:   qs[2],
		Max:   qs[3],
	}
	return s
}

// MergeSnapshots aggregates per-backend stats snapshots into one
// cluster-wide view (the router's OpStats answer and squashctl's merged
// stats). Counters and request maps sum; in-flight sums; uptime is the
// fleet maximum. Latency percentiles cannot be merged exactly from
// quantiles alone, so the merge is conservative: counts sum and each
// percentile is the worst (maximum) across backends. Nil snapshots are
// skipped; merging none yields a zero snapshot.
func MergeSnapshots(snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{Requests: map[string]uint64{}}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if s.UptimeSec > out.UptimeSec {
			out.UptimeSec = s.UptimeSec
		}
		for op, n := range s.Requests {
			out.Requests[op] += n
		}
		out.Errors += s.Errors
		out.Timeouts += s.Timeouts
		out.Panics += s.Panics
		out.InFlight += s.InFlight
		out.SquashCacheHits += s.SquashCacheHits
		out.SquashCacheMisses += s.SquashCacheMisses
		out.PrepCacheHits += s.PrepCacheHits
		out.PrepCacheMisses += s.PrepCacheMisses
		out.PrepErrors += s.PrepErrors
		out.BatchFrames += s.BatchFrames
		out.BatchObjects += s.BatchObjects
		out.BatchShared += s.BatchShared
		out.Latency.Count += s.Latency.Count
		out.Latency.P50 = max(out.Latency.P50, s.Latency.P50)
		out.Latency.P90 = max(out.Latency.P90, s.Latency.P90)
		out.Latency.P99 = max(out.Latency.P99, s.Latency.P99)
		out.Latency.Max = max(out.Latency.Max, s.Latency.Max)
	}
	return out
}
