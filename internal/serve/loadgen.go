package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// LoadOptions configures one replay of a recorded stream against a live
// daemon (cmd/squashload is the CLI wrapper).
type LoadOptions struct {
	// Addr is the daemon address ("unix:/path" or "tcp:host:port").
	Addr string
	// Conns is the number of concurrent connections draining the arrival
	// schedule; <= 0 means 4.
	Conns int

	// Rate multiplies the recorded arrival rate: 1 replays in real time,
	// 2 at twice the recorded rate; <= 0 means 1.
	Rate float64
	// FallbackObj/FallbackProfile replay recorded inline entries (which
	// carry only a content hash) with this payload. FallbackBench does the
	// same via a named benchmark when no payload is given. With neither,
	// inline entries are skipped and counted in the report.
	FallbackObj     []byte
	FallbackProfile []byte
	FallbackBench   string

	// Logf receives progress lines; nil is silent.
	Logf func(format string, args ...any)
}

func (o *LoadOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// LoadLatency is the measured latency distribution in milliseconds.
// Latency is measured from each request's *scheduled* arrival, so queueing
// delay when the daemon falls behind the offered rate shows up in the tail
// instead of being coordinated-omission'd away.
type LoadLatency struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// LoadReport is the load generator's result; cmd/squashload writes its
// JSON form with -out.
type LoadReport struct {
	Concurrency int         `json:"concurrency"`
	Rate        float64     `json:"rate,omitempty"`
	Requests    int         `json:"requests"`
	Objects     int         `json:"objects"`
	Errors      int         `json:"errors"`
	Skipped     int         `json:"skipped,omitempty"`
	DurationSec float64     `json:"duration_sec"`
	ReqPerSec   float64     `json:"req_per_sec"`
	ObjPerSec   float64     `json:"obj_per_sec"`
	Latency     LoadLatency `json:"latency_ms"`
	// Cache rates are deltas of the daemon's stats across the run: hits
	// over lookups of the squash-result and prep caches.
	CacheHitRate float64 `json:"cache_hit_rate"`
	PrepHitRate  float64 `json:"prep_hit_rate"`
	// Wire throughput: bytes crossing the load connections (both
	// directions, headers and envelopes included; the stats probes before
	// and after the run are not counted).
	BytesIn        int64   `json:"bytes_in"`
	BytesOut       int64   `json:"bytes_out"`
	BytesInPerSec  float64 `json:"bytes_in_per_sec"`
	BytesOutPerSec float64 `json:"bytes_out_per_sec"`
}

// wireTotals accumulates the wire-byte counters of every load connection
// as each worker's client closes.
type wireTotals struct {
	in, out atomic.Int64
}

// loadJob is one scheduled request: tMs is its recorded arrival offset,
// due its resolved target send time, and objects its per-frame object
// count.
type loadJob struct {
	req     *Request
	tMs     float64
	due     time.Time
	objects int
}

// Replay sends a recorded stream back at a multiple of its recorded rate.
// The schedule is open-loop: requests are offered at recorded-time/rate
// regardless of how fast the daemon answers, which is what saturates a
// server that one-at-a-time clients never stress.
func Replay(opts LoadOptions, entries []RecordEntry) (*LoadReport, error) {
	jobs := make([]loadJob, 0, len(entries))
	skipped := 0
	for i := range entries {
		req, objects, ok := opts.replayRequest(&entries[i])
		if !ok {
			skipped++
			continue
		}
		jobs = append(jobs, loadJob{req: req, tMs: entries[i].TMs, objects: objects})
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("serve: no replayable entries in a stream of %d (inline-only entries need a fallback payload or bench)", len(entries))
	}
	// Entries are recorded in arrival order, but sort defensively: a
	// merged or hand-edited stream must still replay in time order.
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].tMs < jobs[b].tMs })

	if opts.Conns <= 0 {
		opts.Conns = 4
	}
	if opts.Rate <= 0 {
		opts.Rate = 1
	}
	opts.logf("replaying %d of %d recorded requests at %.2fx over %d conns (%d skipped)",
		len(jobs), len(entries), opts.Rate, opts.Conns, skipped)
	rep, err := opts.run(jobs)
	if err != nil {
		return nil, err
	}
	rep.Skipped = skipped
	return rep, nil
}

// replayRequest turns one recorded entry back into a sendable request.
func (o *LoadOptions) replayRequest(e *RecordEntry) (*Request, int, bool) {
	inline := func() (BatchItem, bool) {
		switch {
		case len(o.FallbackObj) > 0:
			return BatchItem{Obj: o.FallbackObj, Profile: o.FallbackProfile}, true
		case o.FallbackBench != "":
			return BatchItem{Bench: o.FallbackBench, Scale: 1}, true
		}
		return BatchItem{}, false
	}
	switch e.Op {
	case OpBench:
		return &Request{Op: OpBench, Bench: e.Bench, Scale: e.Scale, Config: e.Config, NoImage: e.NoImage}, 1, true
	case OpSquash:
		it, ok := inline()
		if !ok {
			return nil, 0, false
		}
		if it.Bench != "" {
			return &Request{Op: OpBench, Bench: it.Bench, Scale: it.Scale, Config: e.Config, NoImage: e.NoImage}, 1, true
		}
		return &Request{Op: OpSquash, Obj: it.Obj, Profile: it.Profile, Config: e.Config, NoImage: e.NoImage}, 1, true
	case OpBatch:
		items := make([]BatchItem, 0, len(e.Items))
		for _, ri := range e.Items {
			if ri.Bench != "" {
				items = append(items, BatchItem{Bench: ri.Bench, Scale: ri.Scale, Config: e.Config})
				continue
			}
			if it, ok := inline(); ok {
				it.Config = e.Config
				items = append(items, it)
			}
		}
		if len(items) == 0 {
			return nil, 0, false
		}
		return &Request{Op: OpBatch, Items: items, NoImage: e.NoImage}, len(items), true
	}
	return nil, 0, false
}

// run drives the open-loop schedule: each job is due at its recorded
// offset divided by Rate. A feeder goroutine releases jobs on schedule into a
// buffered channel (so a slow daemon backs up the queue, not the schedule)
// and Conns workers drain it. The latency window holds one sample per job,
// so the quantiles cover the whole run, not only its tail.
func (o *LoadOptions) run(jobs []loadJob) (*LoadReport, error) {
	before, err := fetchStats(o.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: load target %s: %w", o.Addr, err)
	}

	hist := obs.NewHistogram(len(jobs))
	var errors atomic.Int64
	var wire wireTotals
	ch := make(chan loadJob, len(jobs))
	start := time.Now()
	go func() {
		for _, j := range jobs {
			j.due = start.Add(time.Duration(j.tMs / o.Rate * float64(time.Millisecond)))
			if d := time.Until(j.due); d > 0 {
				time.Sleep(d)
			}
			ch <- j
		}
		close(ch)
	}()

	var wg sync.WaitGroup
	for w := 0; w < o.Conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.worker(ch, hist, &errors, &wire)
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	after, err := fetchStats(o.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: load target %s: %w", o.Addr, err)
	}

	objects := 0
	for _, j := range jobs {
		objects += j.objects
	}
	qs := hist.Quantiles(0.50, 0.90, 0.99, 1.0)
	mean := 0.0
	if n := hist.Count(); n > 0 {
		mean = hist.Sum() / float64(n)
	}
	rep := &LoadReport{
		Concurrency: o.Conns,
		Rate:        o.Rate,
		Requests:    len(jobs),
		Objects:     objects,
		Errors:      int(errors.Load()),
		DurationSec: wall.Seconds(),
		Latency:     LoadLatency{P50: qs[0], P90: qs[1], P99: qs[2], Max: qs[3], Mean: mean},
		BytesIn:     wire.in.Load(),
		BytesOut:    wire.out.Load(),
	}
	if s := wall.Seconds(); s > 0 {
		rep.ReqPerSec = float64(rep.Requests) / s
		rep.ObjPerSec = float64(objects) / s
		rep.BytesInPerSec = float64(rep.BytesIn) / s
		rep.BytesOutPerSec = float64(rep.BytesOut) / s
	}
	rep.CacheHitRate = hitRateDelta(before.SquashCacheHits, after.SquashCacheHits,
		before.SquashCacheMisses, after.SquashCacheMisses)
	rep.PrepHitRate = hitRateDelta(before.PrepCacheHits, after.PrepCacheHits,
		before.PrepCacheMisses, after.PrepCacheMisses)
	return rep, nil
}

// worker drains jobs over one client connection, redialing once per
// transport failure so a single dropped connection does not zero out a
// run. The client's wire-byte counters flush into the run totals whenever
// its connection closes.
func (o *LoadOptions) worker(ch <-chan loadJob, hist *obs.Histogram, errCount *atomic.Int64, wire *wireTotals) {
	var cl *Client
	closeClient := func() {
		if cl == nil {
			return
		}
		wire.in.Add(cl.BytesIn())
		wire.out.Add(cl.BytesOut())
		cl.Close()
		cl = nil
	}
	defer closeClient()
	for j := range ch {
		if cl == nil {
			c, err := DialClient(o.Addr)
			if err != nil {
				errCount.Add(1)
				continue
			}
			cl = c
		}
		resp, err := cl.Do(j.req)
		if err != nil {
			closeClient()
			errCount.Add(1)
			continue
		}
		if !resp.OK {
			errCount.Add(1)
			continue
		}
		if resp.Results != nil {
			bad := false
			for i := range resp.Results {
				if !resp.Results[i].OK {
					bad = true
					break
				}
			}
			if bad {
				errCount.Add(1)
				continue
			}
		}
		hist.Observe(float64(time.Since(j.due)) / float64(time.Millisecond))
	}
}

// hitRateDelta is hits over lookups across the run window; 0 when the run
// performed no lookups.
func hitRateDelta(h0, h1, m0, m1 uint64) float64 {
	hits := float64(h1 - h0)
	lookups := hits + float64(m1-m0)
	if lookups <= 0 {
		return 0
	}
	return hits / lookups
}

// fetchStats asks the daemon for its stats snapshot over a fresh
// connection.
func fetchStats(addr string) (*Snapshot, error) {
	cl, err := DialClient(addr)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	resp, err := cl.Do(&Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	if !resp.OK || resp.Server == nil {
		return nil, fmt.Errorf("stats request failed: %s", resp.Err)
	}
	return resp.Server, nil
}
