package cluster

import (
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/serve"
)

// Config wires a Router to its backend fleet.
type Config struct {
	// Backends are the squashd addresses to fan out to (at least one).
	Backends []string
	// CheckInterval is the health-probe period (default 2s); CheckTimeout
	// bounds one probe exchange (default 1s).
	CheckInterval time.Duration
	CheckTimeout  time.Duration
	// FailAfter is how many consecutive failures (probes and forwards
	// both) mark a backend down (default 3; minimum 1).
	FailAfter int
	// Retries bounds failover: after the first-ranked backend fails a
	// request with a transport error, up to Retries further live backends
	// are tried, next-ranked first (default 2). Application errors are
	// returned to the client as-is, never retried.
	Retries int
	// BackendTimeout bounds one forwarded exchange; 0 disables.
	BackendTimeout time.Duration
	// MaxIdle bounds pooled idle connections per backend.
	MaxIdle int
	// Logf receives lifecycle lines (backend up/down, drain); nil logs to
	// stderr.
	Logf func(format string, args ...any)
}

// Router fans daemon-protocol requests out to a fleet of squashd
// backends. Its Handle method plugs into serve.Options.Handler, so the
// front side — listeners, frame codec, metrics, graceful drain — is the
// stock daemon machinery and any serve.Client works against it unchanged.
// Handle is safe for concurrent use; concurrency arrives as one
// connection goroutine per client connection.
type Router struct {
	cfg      Config
	backends []*Backend
	byAddr   map[string]*Backend
	logf     func(format string, args ...any)

	stop chan struct{}
	wg   sync.WaitGroup
}

// New validates the config and builds a Router. Call Start to begin
// health checking, Stop to release it.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one backend")
	}
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = 2 * time.Second
	}
	if cfg.CheckTimeout <= 0 {
		cfg.CheckTimeout = time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	logf := cfg.Logf
	if logf == nil {
		l := log.New(os.Stderr, "squashrouter ", log.LstdFlags|log.Lmicroseconds)
		logf = l.Printf
	}
	r := &Router{
		cfg:    cfg,
		byAddr: map[string]*Backend{},
		logf:   logf,
		stop:   make(chan struct{}),
	}
	for _, addr := range cfg.Backends {
		if _, dup := r.byAddr[addr]; dup {
			return nil, fmt.Errorf("cluster: duplicate backend address %q", addr)
		}
		b := newBackend(addr, cfg.MaxIdle)
		r.backends = append(r.backends, b)
		r.byAddr[addr] = b
	}
	return r, nil
}

// Start launches the health-check loop.
func (r *Router) Start() {
	r.wg.Add(1)
	go r.healthLoop()
}

// Stop ends health checking and closes every backend's pooled
// connections. In-flight Handle calls finish on their own connections.
func (r *Router) Stop() {
	close(r.stop)
	r.wg.Wait()
	for _, b := range r.backends {
		b.close()
	}
}

// Handle answers one client request: admin and liveness ops locally,
// everything else by forwarding to placed backends. It is the
// serve.Options.Handler of the router daemon.
func (r *Router) Handle(req *serve.Request) *serve.Response {
	switch req.Op {
	case serve.OpPing:
		// The router's own liveness, not the fleet's: a ping must answer
		// even with every backend down.
		return &serve.Response{OK: true}
	case serve.OpStats:
		return r.handleStats()
	case serve.OpCluster:
		return &serve.Response{OK: true, Cluster: r.clusterSnapshot()}
	case serve.OpDrain:
		return r.setDrain(req.Backend, true)
	case serve.OpUndrain:
		return r.setDrain(req.Backend, false)
	case serve.OpBatch:
		return r.routeBatch(req)
	default:
		// OpSquash, OpBench — and any op this router predates, which the
		// backend will reject with its own error.
		return r.routeOne(req)
	}
}

// live appends to dst the backends currently eligible for new work and
// not in excluded, in configuration order, and returns it.
func (r *Router) live(dst []*Backend, excluded map[*Backend]bool) []*Backend {
	for _, b := range r.backends {
		if b.live() && !excluded[b] {
			dst = append(dst, b)
		}
	}
	return dst
}

// routeOne forwards a single-object request with bounded failover: rank
// the live backends for the request's content key, try them best-first,
// and reroute on transport error. Squash is deterministic and
// idempotent per (object, profile, config), so a retry after a
// half-completed exchange cannot produce a different answer — the worst
// case is a backend doing duplicate work that warms its cache.
func (r *Router) routeOne(req *serve.Request) *serve.Response {
	key, _ := serve.RouteKey(req)
	var liveBuf, rankBuf [fleetScratch]*Backend
	ranked := rank(key, r.live(liveBuf[:0], nil), rankBuf[:0])
	if len(ranked) == 0 {
		return &serve.Response{Err: "cluster: no live backends"}
	}
	attempts := 1 + r.cfg.Retries
	if attempts > len(ranked) {
		attempts = len(ranked)
	}
	var lastErr error
	for _, b := range ranked[:attempts] {
		resp, err := b.do(req, r.cfg.BackendTimeout)
		if err == nil {
			if b.noteSuccess() {
				r.logf("backend %s up (request succeeded)", b.Addr)
			}
			return resp
		}
		r.noteFailed(b, err)
		lastErr = err
	}
	return &serve.Response{Err: fmt.Sprintf("cluster: all %d placement attempts failed, last: %v", attempts, lastErr)}
}

// routeBatch splits one OpBatch frame into per-backend sub-batches by
// each item's content key, forwards the shards concurrently, and
// reassembles results in item order. Failover works per shard: a shard
// whose backend fails with a transport error reroutes on the next round
// with that backend excluded, up to Retries extra rounds. Errors stay
// per-item throughout — a shard that exhausts failover yields error
// results only at its own indices. Within-batch duplicates hash to the
// same shard (same key, same ranking), so backend-side dedup and Shared
// marking survive the split.
func (r *Router) routeBatch(req *serve.Request) *serve.Response {
	items := req.Items
	if len(items) == 0 {
		return &serve.Response{Err: "batch request needs at least one item"}
	}
	if len(items) > serve.MaxBatchItems {
		return &serve.Response{Err: fmt.Sprintf("batch of %d items exceeds limit %d", len(items), serve.MaxBatchItems)}
	}

	results := make([]serve.BatchResult, len(items))
	pending := make([]int, len(items))
	for i := range pending {
		pending[i] = i
	}
	excluded := map[*Backend]bool{}

	for round := 0; round <= r.cfg.Retries && len(pending) > 0; round++ {
		live := r.live(make([]*Backend, 0, len(r.backends)), excluded)
		if len(live) == 0 {
			break
		}

		// Place every pending item; ranked[0] is its shard this round.
		shards := map[*Backend][]int{}
		scratch := make([]*Backend, 0, len(live))
		for _, i := range pending {
			key := serve.RouteKeyItem(&items[i])
			ranked := rank(key, live, scratch)
			shards[ranked[0]] = append(shards[ranked[0]], i)
		}

		type shardOut struct {
			b    *Backend
			idx  []int
			resp *serve.Response
			err  error
		}
		outc := make(chan shardOut, len(shards))
		for b, idx := range shards {
			go func(b *Backend, idx []int) {
				sub := &serve.Request{Op: serve.OpBatch, NoImage: req.NoImage,
					Items: make([]serve.BatchItem, len(idx))}
				for j, i := range idx {
					sub.Items[j] = items[i]
				}
				resp, err := b.do(sub, r.cfg.BackendTimeout)
				outc <- shardOut{b: b, idx: idx, resp: resp, err: err}
			}(b, idx)
		}

		pending = pending[:0]
		for range shards {
			out := <-outc
			switch {
			case out.err != nil:
				// Transport failure: the whole shard reroutes next round,
				// away from this backend.
				r.noteFailed(out.b, out.err)
				excluded[out.b] = true
				pending = append(pending, out.idx...)
			case !out.resp.OK || len(out.resp.Results) != len(out.idx):
				// The backend answered but rejected the frame (or returned a
				// malformed result set). An application error is
				// deterministic — retrying elsewhere gets the same answer —
				// so it lands on the items now.
				if out.b.noteSuccess() {
					r.logf("backend %s up (request succeeded)", out.b.Addr)
				}
				msg := out.resp.Err
				if msg == "" {
					msg = fmt.Sprintf("backend returned %d results for %d items", len(out.resp.Results), len(out.idx))
				}
				for _, i := range out.idx {
					results[i] = serve.BatchResult{Err: msg}
				}
			default:
				if out.b.noteSuccess() {
					r.logf("backend %s up (request succeeded)", out.b.Addr)
				}
				for j, i := range out.idx {
					results[i] = out.resp.Results[j]
				}
			}
		}
	}

	for _, i := range pending {
		results[i] = serve.BatchResult{Err: "cluster: no live backend for item"}
	}
	return &serve.Response{OK: true, Results: results}
}

// handleStats answers OpStats with a live merge: every backend is probed
// now (concurrently, bounded by CheckTimeout) and the fresh snapshots
// merge into one fleet view, so clients that poll stats — squashload's
// cache-delta accounting included — see current numbers, not the last
// health-check's. A backend that fails the fetch contributes its last
// known snapshot instead of stalling the answer.
func (r *Router) handleStats() *serve.Response {
	snaps := make([]*serve.Snapshot, len(r.backends))
	done := make(chan struct{}, len(r.backends))
	for i, b := range r.backends {
		go func(i int, b *Backend) {
			snap, err := r.probe(b)
			if err != nil {
				snap = b.status(time.Now()).Stats // last known, possibly nil
			}
			snaps[i] = snap
			done <- struct{}{}
		}(i, b)
	}
	for range r.backends {
		<-done
	}
	return &serve.Response{OK: true, Server: serve.MergeSnapshots(snaps...)}
}

// clusterSnapshot builds the OpCluster answer from tracked state (no
// network round-trips: the admin plane must answer even when backends
// hang; per-backend stats are the last successful probes').
func (r *Router) clusterSnapshot() *serve.ClusterSnapshot {
	now := time.Now()
	cs := &serve.ClusterSnapshot{}
	snaps := make([]*serve.Snapshot, 0, len(r.backends))
	for _, b := range r.backends {
		st := b.status(now)
		cs.Backends = append(cs.Backends, st)
		snaps = append(snaps, st.Stats)
	}
	cs.Merged = serve.MergeSnapshots(snaps...)
	return cs
}

// setDrain flips a backend's operator drain state. Draining removes it
// from routing without touching health state; health checks continue so
// its liveness is current when undrained.
func (r *Router) setDrain(addr string, drain bool) *serve.Response {
	b, ok := r.byAddr[addr]
	if !ok {
		return &serve.Response{Err: fmt.Sprintf("cluster: unknown backend %q", addr)}
	}
	b.setDraining(drain)
	if drain {
		r.logf("backend %s draining (operator)", addr)
	} else {
		r.logf("backend %s undrained (operator)", addr)
	}
	return &serve.Response{OK: true, Cluster: r.clusterSnapshot()}
}
