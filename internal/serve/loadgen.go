package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// LoadOptions configures one load-generator run against a live daemon
// (cmd/squashload is the CLI wrapper).
type LoadOptions struct {
	// Addr is the daemon address ("unix:/path" or "tcp:host:port").
	Addr string
	// Conns is the number of concurrent connections; <= 0 means 4. In
	// replay mode they drain the arrival schedule; in synthetic mode each
	// is one closed-loop client.
	Conns int

	// Rate multiplies the recorded arrival rate in replay mode: 1 replays
	// in real time, 2 at twice the recorded rate; <= 0 means 1.
	Rate float64
	// FallbackObj/FallbackProfile replay recorded inline entries (which
	// carry only a content hash) with this payload. FallbackBench does the
	// same via a named benchmark when no payload is given. With neither,
	// inline entries are skipped and counted in the report.
	FallbackObj     []byte
	FallbackProfile []byte
	FallbackBench   string

	// Synthetic mode: either Bench (server-prepared, with Scale) or an
	// inline Obj/Profile payload.
	Bench        string
	Scale        float64
	Obj, Profile []byte
	// BatchSize > 1 sends OpBatch frames of that many objects per request;
	// otherwise each request carries one object.
	BatchSize int
	// Duration bounds a synthetic run (<= 0 means 5s) unless Requests > 0
	// sets a fixed request budget instead.
	Duration time.Duration
	Requests int

	// Config applies to every generated request; nil means the server
	// default.
	Config *core.Config

	// NoImage sets the stats-only flag on every generated request, taking
	// image payload transfer off the wire (recorded entries that already
	// carry the flag keep it either way).
	NoImage bool

	// Logf receives progress lines; nil is silent.
	Logf func(format string, args ...any)
}

func (o *LoadOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// LoadLatency is the measured latency distribution in milliseconds. In
// replay mode latency is measured from each request's *scheduled* arrival,
// so queueing delay when the daemon falls behind the offered rate shows up
// in the tail instead of being coordinated-omission'd away.
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
	Mode        string      `json:"mode"` // "replay" or "synthetic"
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

// loadJob is one scheduled request: tMs is its recorded arrival offset
// (replay mode), due its resolved target send time (zero in closed-loop
// mode), and objects its per-frame object count.
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

	rate := opts.Rate
	if rate <= 0 {
		rate = 1
	}
	opts.logf("replaying %d of %d recorded requests at %.2fx over %d conns (%d skipped)",
		len(jobs), len(entries), rate, max(opts.Conns, 1), skipped)
	rep, err := opts.run("replay", jobs, func(start time.Time, i int) time.Time {
		return start.Add(time.Duration(jobs[i].tMs / rate * float64(time.Millisecond)))
	})
	if err != nil {
		return nil, err
	}
	rep.Rate = rate
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
	noImage := e.NoImage || o.NoImage
	switch e.Op {
	case OpBench:
		return &Request{Op: OpBench, Bench: e.Bench, Scale: e.Scale, Config: e.Config, NoImage: noImage}, 1, true
	case OpSquash:
		it, ok := inline()
		if !ok {
			return nil, 0, false
		}
		if it.Bench != "" {
			return &Request{Op: OpBench, Bench: it.Bench, Scale: it.Scale, Config: e.Config, NoImage: noImage}, 1, true
		}
		return &Request{Op: OpSquash, Obj: it.Obj, Profile: it.Profile, Config: e.Config, NoImage: noImage}, 1, true
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
		return &Request{Op: OpBatch, Items: items, NoImage: noImage}, len(items), true
	}
	return nil, 0, false
}

// Synthetic runs a closed-loop load: Conns clients each send the same
// request back-to-back until the duration elapses or the request budget is
// spent. This measures capacity (the saturation req/s the daemon sustains)
// where replay measures behavior at a fixed offered rate.
func Synthetic(opts LoadOptions) (*LoadReport, error) {
	if opts.Bench == "" && len(opts.Obj) == 0 {
		return nil, fmt.Errorf("serve: synthetic load needs a bench name or an inline payload")
	}
	req := opts.syntheticRequest()
	objects := 1
	if req.Op == OpBatch {
		objects = len(req.Items)
	}

	budget := opts.Requests
	duration := opts.Duration
	if budget <= 0 && duration <= 0 {
		duration = 5 * time.Second
	}
	opts.logf("synthetic closed loop: op=%s objects/frame=%d budget=%d duration=%s",
		req.Op, objects, budget, duration)
	return opts.runClosed(req, objects, budget, duration)
}

func (o *LoadOptions) syntheticRequest() *Request {
	item := BatchItem{Bench: o.Bench, Scale: o.Scale, Obj: o.Obj, Profile: o.Profile, Config: o.Config}
	if o.BatchSize > 1 {
		items := make([]BatchItem, o.BatchSize)
		for i := range items {
			items[i] = item
		}
		return &Request{Op: OpBatch, Items: items, NoImage: o.NoImage}
	}
	if item.Bench != "" {
		return &Request{Op: OpBench, Bench: item.Bench, Scale: item.Scale, Config: item.Config, NoImage: o.NoImage}
	}
	return &Request{Op: OpSquash, Obj: item.Obj, Profile: item.Profile, Config: item.Config, NoImage: o.NoImage}
}

// run drives an open-loop schedule: dueAt(start, i) gives job i's send
// time. A feeder goroutine releases jobs on schedule into a buffered
// channel (so a slow daemon backs up the queue, not the schedule) and
// Conns workers drain it.
func (o *LoadOptions) run(mode string, jobs []loadJob, dueAt func(start time.Time, i int) time.Time) (*LoadReport, error) {
	conns := o.Conns
	if conns <= 0 {
		conns = 4
	}
	before, err := fetchStats(o.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: load target %s: %w", o.Addr, err)
	}

	hist := obs.NewHistogram(1 << 16)
	var errors atomic.Int64
	var wire wireTotals
	ch := make(chan loadJob, len(jobs))
	start := time.Now()
	go func() {
		for i := range jobs {
			due := dueAt(start, i)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			j := jobs[i]
			j.due = due
			ch <- j
		}
		close(ch)
	}()

	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
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

	requests, objects := 0, 0
	for _, j := range jobs {
		requests++
		objects += j.objects
	}
	return o.report(mode, conns, requests, objects, int(errors.Load()), wall, hist, before, after, &wire), nil
}

// runClosed drives the closed-loop synthetic mode.
func (o *LoadOptions) runClosed(req *Request, objectsPer, budget int, duration time.Duration) (*LoadReport, error) {
	conns := o.Conns
	if conns <= 0 {
		conns = 4
	}
	before, err := fetchStats(o.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: load target %s: %w", o.Addr, err)
	}

	hist := obs.NewHistogram(1 << 16)
	var errors, sent atomic.Int64
	var wire wireTotals
	var deadline time.Time
	start := time.Now()
	if budget <= 0 {
		deadline = start.Add(duration)
	}

	ch := make(chan loadJob)
	go func() {
		defer close(ch)
		for {
			if budget > 0 {
				if sent.Add(1) > int64(budget) {
					return
				}
			} else if !time.Now().Before(deadline) {
				return
			}
			ch <- loadJob{req: req, objects: objectsPer}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
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
	requests := int(hist.Count()) + int(errors.Load())
	return o.report("synthetic", conns, requests, requests*objectsPer, int(errors.Load()), wall, hist, before, after, &wire), nil
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
		from := j.due
		if from.IsZero() {
			from = time.Now()
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
		hist.Observe(float64(time.Since(from)) / float64(time.Millisecond))
	}
}

func (o *LoadOptions) report(mode string, conns, requests, objects, errCount int, wall time.Duration, hist *obs.Histogram, before, after *Snapshot, wire *wireTotals) *LoadReport {
	qs := hist.Quantiles(0.50, 0.90, 0.99, 1.0)
	mean := 0.0
	if n := hist.Count(); n > 0 {
		mean = hist.Sum() / float64(n)
	}
	rep := &LoadReport{
		Mode:        mode,
		Concurrency: conns,
		Requests:    requests,
		Objects:     objects,
		Errors:      errCount,
		DurationSec: wall.Seconds(),
		Latency:     LoadLatency{P50: qs[0], P90: qs[1], P99: qs[2], Max: qs[3], Mean: mean},
	}
	rep.BytesIn = wire.in.Load()
	rep.BytesOut = wire.out.Load()
	if s := wall.Seconds(); s > 0 {
		rep.ReqPerSec = float64(requests) / s
		rep.ObjPerSec = float64(objects) / s
		rep.BytesInPerSec = float64(rep.BytesIn) / s
		rep.BytesOutPerSec = float64(rep.BytesOut) / s
	}
	rep.CacheHitRate = hitRateDelta(before.SquashCacheHits, after.SquashCacheHits,
		before.SquashCacheMisses, after.SquashCacheMisses)
	rep.PrepHitRate = hitRateDelta(before.PrepCacheHits, after.PrepCacheHits,
		before.PrepCacheMisses, after.PrepCacheMisses)
	return rep
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
