package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// coldEvery is the number of requests each client sends per slice; the
// last of them is a cache miss.
const coldEvery = 50

// coldCycle is the order, by index into programs, in which slices pick the
// program their misses squash. gsm appears twice so that the miss-latency
// median falls inside one program's latency mode instead of on the border
// between two, where it would jump between runs.
var coldCycle = []int{0, 1, 3, 1, 2}

// servePath is an in-process squash daemon driven by two closed-loop
// clients, each sending its next inline OpSquash request when the previous
// reply arrives, as a build system does. A unit is a slice in which each
// client sends coldEvery requests. The first coldEvery-1 visit the four
// programs in seeded shuffled blocks and read the result cache. The last
// carries a θ no request used before (the base θ moved by a few ulps, which
// leaves the cold set, and so the image, unchanged) and runs the whole
// pipeline; the two clients' misses squash the same program side by side,
// one on each pool worker, so that every slice loads the daemon alike.
// Every image must equal the one-shot image; the first miss of each
// program is also checked, after the measurement, against a one-shot
// squash of its exact configuration.
type servePath struct {
	b       *bench
	clients [2][]*loadClient // untraced and traced daemon
	slices  [2][]serveSlice
	units   [2][]int // calibration units the path ran in
	checked map[*program]bool

	// Traced slices only.
	marked       bool
	hits, misses uint64
	qmax         int64
}

// serveSlice is what both clients did in one unit.
type serveSlice struct {
	prog       int             // program of the slice's misses
	warm, cold []float64       // request latencies, ms
	busy       []time.Duration // per client, time spent waiting in Do
	perProg    []int           // requests per program
	wire       int64           // bytes sent and received
	samples    []coldSample
}

// coldSample is a miss's response kept for the one-shot check.
type coldSample struct {
	p     *program
	conf  core.Config
	image []byte
}

// loadClient is one connection and its warm-request order.
type loadClient struct {
	id    int
	c     *serve.Client
	rng   *rand.Rand
	block []int // remaining programs of the current warm block
}

func newServePath(b *bench) *servePath {
	return &servePath{b: b, checked: map[*program]bool{}}
}

func (s *servePath) daemon(traced bool) *daemon {
	if traced {
		return s.b.trcd
	}
	return s.b.plain
}

func (s *servePath) unit(k int, traced bool) error {
	t := idx(traced)
	d := s.daemon(traced)
	if s.clients[t] == nil {
		for id := 0; id < threads; id++ {
			c, err := serve.DialClient(d.addr)
			if err != nil {
				return err
			}
			s.clients[t] = append(s.clients[t], &loadClient{
				id: id, c: c, rng: rand.New(rand.NewSource(s.b.opts.seed*7919 + int64(id))),
			})
		}
	}
	var before *serve.Snapshot
	stopSampler := func() {}
	if traced {
		if !s.marked {
			d.tracer.Start("perfbench.mark").End()
			s.marked = true
		}
		before = d.srv.StatsSnapshot()
		stopSampler = sampleQueueDepth(d, &s.qmax)
	}

	s.units[t] = append(s.units[t], k)
	sl := serveSlice{
		prog:    coldCycle[(len(s.slices[t])+int(s.b.opts.seed))%len(coldCycle)],
		busy:    make([]time.Duration, threads),
		perProg: make([]int, len(s.b.progs)),
	}
	runs := make([]clientRun, threads)
	var wg sync.WaitGroup
	for i, lc := range s.clients[t] {
		wg.Add(1)
		go func(i int, lc *loadClient) {
			defer wg.Done()
			runs[i] = s.b.drive(lc, sl.prog, s.checked)
		}(i, lc)
	}
	wg.Wait()
	for i, r := range runs {
		if r.err != nil {
			return r.err
		}
		sl.warm = append(sl.warm, r.warm...)
		sl.cold = append(sl.cold, r.cold...)
		sl.busy[i] = r.busy
		sl.wire += r.wire
		for p, n := range r.perProg {
			sl.perProg[p] += n
		}
		if r.sample != nil && !s.checked[r.sample.p] {
			s.checked[r.sample.p] = true
			sl.samples = append(sl.samples, *r.sample)
		}
	}
	s.slices[t] = append(s.slices[t], sl)
	stopSampler()
	if traced {
		after := d.srv.StatsSnapshot()
		s.hits += after.SquashCacheHits - before.SquashCacheHits
		s.misses += after.SquashCacheMisses - before.SquashCacheMisses
	}
	return nil
}

// clientRun is what one client did in one slice.
type clientRun struct {
	warm, cold []float64 // ms
	busy       time.Duration
	perProg    []int
	wire       int64
	sample     *coldSample
	err        error
}

// drive sends one client's coldEvery requests of a slice whose miss
// squashes program cold. checked is read only: it names the programs
// whose miss image is already kept for the one-shot check.
func (b *bench) drive(lc *loadClient, cold int, checked map[*program]bool) clientRun {
	r := clientRun{perProg: make([]int, len(b.progs))}
	wire0 := lc.c.BytesIn() + lc.c.BytesOut()
	for i := 0; i < coldEvery; i++ {
		miss := i == coldEvery-1
		pi := cold
		if !miss {
			if len(lc.block) == 0 {
				lc.block = lc.rng.Perm(len(b.progs))
			}
			pi, lc.block = lc.block[0], lc.block[1:]
		}
		p := b.progs[pi]
		conf := p.conf
		if miss {
			conf.Theta = math.Float64frombits(math.Float64bits(baseTheta) + b.coldSeq.Add(1))
		}
		t := time.Now()
		resp, err := lc.c.Do(&serve.Request{Op: serve.OpSquash, Obj: p.obj, Profile: p.prof, Config: &conf})
		dt := time.Since(t)
		if !b.chk.check(err == nil, "serve %s: %v", p.name, err) {
			r.err = err
			return r
		}
		r.busy += dt
		r.perProg[pi]++
		if miss {
			r.cold = append(r.cold, ms(dt))
		} else {
			r.warm = append(r.warm, ms(dt))
		}
		b.chk.check(resp.OK && bytes.Equal(resp.Image, p.ref),
			"serve %s θ=%g: image differs from the one-shot image (err %q)", p.name, conf.Theta, resp.Err)
		if miss && !checked[p] {
			r.sample = &coldSample{p: p, conf: conf, image: resp.Image}
		}
	}
	r.wire = lc.c.BytesIn() + lc.c.BytesOut() - wire0
	return r
}

// ready requires whole rounds of the miss cycle, at least two, so that the
// run holds exactly the mix of miss programs coldCycle sets.
func (s *servePath) ready(traced bool) bool {
	n := len(s.slices[idx(traced)])
	return n >= 2*len(coldCycle) && n%len(coldCycle) == 0
}

// publish reports latencies and waiting time scaled to the reference
// machine (see calib.go) by one factor for the whole path: the median of
// the factors around its units. Per-slice factors would add more noise
// than they remove, since a slice's traffic keeps both CPUs busy while the
// kernel runs on one. The traced per-layer times are raw.
func (s *servePath) publish(traced bool) (float64, error) {
	var fs []float64
	for _, k := range s.units[idx(traced)] {
		fs = append(fs, s.b.cal.factor(k))
	}
	f := median(fs)
	slices := s.slices[idx(traced)]
	for _, sl := range slices {
		s.checkColdSamples(sl.samples)
	}
	var warm, cold []float64
	busy := make([]float64, threads) // seconds on the reference machine
	var busyRaw time.Duration
	reqs := 0
	perProg := make([]int, len(s.b.progs))
	var wire int64
	for _, sl := range slices {
		for _, v := range sl.warm {
			warm = append(warm, v*f)
		}
		for _, v := range sl.cold {
			cold = append(cold, v*f)
		}
		for i, d := range sl.busy {
			busy[i] += d.Seconds() * f
			busyRaw += d
		}
		for i, n := range sl.perProg {
			perProg[i] += n
			reqs += n
		}
		wire += sl.wire
	}
	if len(cold) == 0 {
		return 0, fmt.Errorf("serve: no cache misses measured in %d requests", reqs)
	}
	rate := 0.0
	for _, d := range busy {
		rate += float64(reqs/threads) / d
	}
	perOp := sum(busy) / float64(reqs)
	s.b.led.set("serve.warm_ms_p99", quantile(warm, 0.99))
	s.b.led.set("serve.cold_ms_p90", quantile(cold, 0.90))
	if !traced {
		s.b.led.set("serve_req_per_s", rate)
		s.b.led.set("serve_warm_ms_p50", quantile(warm, 0.50))
		s.b.led.set("serve_cold_ms_p50", quantile(cold, 0.50))
		s.b.led.note("serve: %d slices, %d requests, %d misses", len(slices), reqs, len(cold))
		return perOp, nil
	}

	d := s.daemon(true)
	spans, err := spansOf(d.tracer)
	if err != nil {
		return 0, err
	}
	mark := math.Inf(1)
	for _, sp := range spans {
		if sp.Name == "perfbench.mark" {
			mark = sp.Ts
		}
	}
	var hit, miss, squash []float64
	var spanTotal, squashTotal float64
	for _, sp := range spans {
		if sp.Ts < mark {
			continue
		}
		switch sp.Name {
		case "squashd.request":
			spanTotal += sp.Dur / 1000
			if sp.Args["cache"] == "hit" {
				hit = append(hit, sp.Dur/1000)
			} else {
				miss = append(miss, sp.Dur/1000)
			}
		case "squash":
			squash = append(squash, sp.Dur/1000)
			squashTotal += sp.Dur / 1000
		}
	}
	keyHash := s.keyHashUS()
	keyTotal := 0.0 // ms
	for i, n := range perProg {
		keyTotal += float64(n) * keyHash[i] / 1000
	}
	doTotal := ms(busyRaw)
	n := float64(reqs)
	wireMS := doTotal - spanTotal
	attributed := wireMS + keyTotal + squashTotal
	s.b.led.set("serve.key_hash_us", mean(keyHash))
	s.b.led.set("serve.wire_ms", wireMS/n)
	s.b.led.set("serve.request_ms_hit", mean(hit))
	s.b.led.set("serve.request_ms_miss", mean(miss))
	s.b.led.set("serve.squash_ms", mean(squash))
	s.b.led.set("serve.cache_hit_ratio", float64(s.hits)/math.Max(float64(s.hits+s.misses), 1))
	s.b.led.set("serve.bytes_per_req", float64(wire)/n)
	s.b.led.set("parallel.queue_depth_max", float64(s.qmax))
	s.b.led.set("serve.unattributed_ms", (doTotal-attributed)/n)
	s.b.coverage("serve", attributed/doTotal)
	return perOp, nil
}

// checkColdSamples squashes each kept miss's exact configuration one-shot
// and compares the images.
func (s *servePath) checkColdSamples(samples []coldSample) {
	for _, cs := range samples {
		out, err := core.Squash(cs.p.bench.SqObj, cs.p.bench.Profile, cs.conf)
		var img bytes.Buffer
		if err == nil {
			_, err = out.Image.WriteTo(&img)
		}
		s.b.chk.check(err == nil && bytes.Equal(img.Bytes(), cs.image),
			"serve %s θ=%g: miss image differs from one-shot squash of the same config (err %v)", cs.p.name, cs.conf.Theta, err)
	}
}

// keyHashUS times serve.RouteKey, the result-cache key, on each program's
// warm request and returns microseconds per call by program.
func (s *servePath) keyHashUS() []float64 {
	out := make([]float64, len(s.b.progs))
	for i, p := range s.b.progs {
		conf := p.conf
		req := &serve.Request{Op: serve.OpSquash, Obj: p.obj, Profile: p.prof, Config: &conf}
		const reps = 50
		t := time.Now()
		for r := 0; r < reps; r++ {
			serve.RouteKey(req)
		}
		out[i] = float64(time.Since(t)) / float64(time.Microsecond) / float64(reps)
	}
	return out
}

func (s *servePath) close() {
	for _, cs := range s.clients {
		for _, lc := range cs {
			lc.c.Close()
		}
	}
}

// sampleQueueDepth polls the daemon's worker-pool queue-depth gauge every
// millisecond, keeping the maximum in *qmax, until the returned stop
// function is called; stop waits for the poller to exit.
func sampleQueueDepth(d *daemon, qmax *int64) (stop func()) {
	g := d.srv.Obs().Metrics.Gauge("pool_queue_depth")
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if v := g.Value(); v > *qmax {
					*qmax = v
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}
