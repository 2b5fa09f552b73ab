package serve

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// metrics aggregates the daemon's operational counters. All methods are
// safe for concurrent use.
//
// The counters live twice on purpose: plain fields under the mutex feed
// the OpStats wire snapshot (whose format predates the telemetry layer
// and must stay stable), while the obs registry carries the same events
// for the HTTP /metrics exports. Latency is registry-only: the windowed
// obs histogram replays the old ring's nearest-rank percentiles exactly,
// and reports zeros — never NaN — on an empty or one-sample window.
type metrics struct {
	mu       sync.Mutex
	started  time.Time
	requests map[string]uint64
	errors   uint64
	timeouts uint64

	squashHits, squashMisses uint64
	prepHits, prepMisses     uint64
	prepErrors               uint64

	batchFrames, batchObjects, batchShared uint64

	inFlight int

	reg        *obs.Registry
	lat        *obs.Histogram // "squashd_request_ms", recent-window latency
	inFlightG  *obs.Gauge
	errorsC    *obs.Counter
	timeoutsC  *obs.Counter
	resHitC    *obs.Counter
	resMissC   *obs.Counter
	prepHitC   *obs.Counter
	prepMissC  *obs.Counter
	prepErrC   *obs.Counter
	resEntries *obs.Gauge
	resBytes   *obs.Gauge

	batchFramesC  *obs.Counter
	batchObjectsC *obs.Counter
	batchSharedC  *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		started:    time.Now(),
		requests:   map[string]uint64{},
		reg:        reg,
		lat:        reg.Histogram("squashd_request_ms"),
		inFlightG:  reg.Gauge("squashd_in_flight"),
		errorsC:    reg.Counter("squashd_errors_total"),
		timeoutsC:  reg.Counter("squashd_timeouts_total"),
		resHitC:    reg.Counter("squashd_cache_hits_total", obs.L("cache", "result")),
		resMissC:   reg.Counter("squashd_cache_misses_total", obs.L("cache", "result")),
		prepHitC:   reg.Counter("squashd_cache_hits_total", obs.L("cache", "prep")),
		prepMissC:  reg.Counter("squashd_cache_misses_total", obs.L("cache", "prep")),
		prepErrC:   reg.Counter("squashd_prep_errors_total"),
		resEntries: reg.Gauge("squashd_result_cache_entries"),
		resBytes:   reg.Gauge("squashd_result_cache_bytes"),

		batchFramesC:  reg.Counter("squashd_batch_frames_total"),
		batchObjectsC: reg.Counter("squashd_batch_objects_total"),
		batchSharedC:  reg.Counter("squashd_batch_shared_total"),
	}
}

func (m *metrics) begin(op string) {
	m.mu.Lock()
	m.requests[op]++
	m.inFlight++
	m.mu.Unlock()
	m.reg.Counter("squashd_requests_total", obs.L("op", op)).Inc()
	m.inFlightG.Add(1)
}

func (m *metrics) end(d time.Duration, failed, timedOut bool) {
	m.mu.Lock()
	m.inFlight--
	if failed {
		m.errors++
	}
	if timedOut {
		m.timeouts++
	}
	m.mu.Unlock()
	m.inFlightG.Add(-1)
	if failed {
		m.errorsC.Inc()
	}
	if timedOut {
		m.timeoutsC.Inc()
	}
	m.lat.Observe(float64(d) / float64(time.Millisecond))
}

func (m *metrics) squashCache(hit bool) {
	m.mu.Lock()
	if hit {
		m.squashHits++
	} else {
		m.squashMisses++
	}
	m.mu.Unlock()
	if hit {
		m.resHitC.Inc()
	} else {
		m.resMissC.Inc()
	}
}

func (m *metrics) prepCache(hit bool) {
	m.mu.Lock()
	if hit {
		m.prepHits++
	} else {
		m.prepMisses++
	}
	m.mu.Unlock()
	if hit {
		m.prepHitC.Inc()
	} else {
		m.prepMissC.Inc()
	}
}

// prepError records a failed benchmark preparation. The failed lookup has
// already been counted as a prep-cache miss (errored requests must not
// silently drop out of the hit-rate denominator); this counter separates
// "prep ran and failed" from "prep ran cold".
func (m *metrics) prepError() {
	m.mu.Lock()
	m.prepErrors++
	m.mu.Unlock()
	m.prepErrC.Inc()
}

// batch records one OpBatch frame: how many objects it carried and how
// many were within-batch duplicates served from a sibling's result.
func (m *metrics) batch(objects, shared int) {
	m.mu.Lock()
	m.batchFrames++
	m.batchObjects += uint64(objects)
	m.batchShared += uint64(shared)
	m.mu.Unlock()
	m.batchFramesC.Inc()
	m.batchObjectsC.Add(uint64(objects))
	m.batchSharedC.Add(uint64(shared))
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
	m.mu.Lock()
	s := &Snapshot{
		UptimeSec:         time.Since(m.started).Seconds(),
		Requests:          map[string]uint64{},
		Errors:            m.errors,
		Timeouts:          m.timeouts,
		InFlight:          m.inFlight,
		SquashCacheHits:   m.squashHits,
		SquashCacheMisses: m.squashMisses,
		PrepCacheHits:     m.prepHits,
		PrepCacheMisses:   m.prepMisses,
		PrepErrors:        m.prepErrors,
		BatchFrames:       m.batchFrames,
		BatchObjects:      m.batchObjects,
		BatchShared:       m.batchShared,
	}
	for op, n := range m.requests {
		s.Requests[op] = n
	}
	m.mu.Unlock()

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
