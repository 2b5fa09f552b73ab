package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/profile"
)

// ErrServerClosed is returned by Serve after Shutdown, mirroring net/http.
var ErrServerClosed = errors.New("serve: server closed")

// Options configures a Server.
type Options struct {
	// Workers bounds the number of squash requests processed at once (the
	// size of the worker pool); <= 0 means one per CPU. Each request's
	// pipeline-internal worker count comes from its own core.Config.
	Workers int
	// Timeout bounds one request's total time in the server, queueing
	// included; 0 disables. On expiry the client gets an error response;
	// an already-running squash finishes in the background (the pipeline
	// is not cancellable mid-flight) and still warms the cache. It also
	// bounds the read of each request frame once its first byte has
	// arrived: a client that stalls mid-frame has its connection closed.
	// A connection idle between frames has no deadline.
	Timeout time.Duration
	// CacheEntries bounds the warm squash-result cache; 0 means the
	// default (64), negative disables caching.
	CacheEntries int
	// CacheBytes additionally bounds the result cache by its resident
	// bytes: images plus the interned object and profile bytes entries
	// retain to match hits exactly, each interned copy counted once; 0
	// keeps the entry-count-only behavior. With a budget set, the LRU
	// evicts (possibly several) oldest entries until the total fits, and
	// an entry whose image and request bytes exceed the whole budget is
	// never cached.
	CacheBytes int64
	// Handler, when non-nil, replaces the squash pipeline entirely: every
	// request — stats and ping included — is answered by the handler,
	// inline on the connection goroutine (no worker pool, no local result
	// cache, no per-request timeout; the handler owns its own bounds).
	// The cluster router uses this to reuse the daemon's listener, codec,
	// metrics, and drain machinery in front of its fan-out.
	Handler func(*Request) *Response
	// PrepCacheDir is the on-disk experiments preparation cache for
	// OpBench requests; empty uses only the in-memory layer.
	PrepCacheDir string
	// Logf receives one structured line per request (and lifecycle
	// events); nil logs to stderr.
	Logf func(format string, args ...any)
	// Record, when set, appends every squash/bench/batch arrival to a
	// JSONL stream (content hash or benchmark key plus arrival offset)
	// that cmd/squashload can replay; nil disables recording.
	Record *StreamRecorder
	// Obs supplies the telemetry recorder: per-request spans go to its
	// tracer (when present) and operational metrics to its registry. Nil —
	// or a recorder without a registry — gets a private metrics-only
	// recorder so the /metrics exports always work.
	Obs *obs.Recorder
}

// Server is the squash daemon.
type Server struct {
	opts  Options
	rec   *obs.Recorder
	pool  *parallel.Pool
	cache *resultCache
	met   *metrics
	logf  func(format string, args ...any)
	reqID atomic.Uint64

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*connState]struct{}
	closed    bool

	connWG sync.WaitGroup

	// testDelay stalls request processing inside the worker (tests of
	// draining and timeouts only). Nanoseconds; atomic because tests adjust
	// it while abandoned workers may still be reading it.
	testDelay atomic.Int64
	// testPanic makes every squash panic (tests of the panic boundary
	// only).
	testPanic atomic.Bool
}

// connState tracks one client connection so Shutdown can distinguish idle
// connections (closed immediately) from those with a request in flight
// (drained: the response is written, then the connection closes).
type connState struct {
	c  net.Conn
	mu sync.Mutex
	// busy marks a request between read and response write.
	busy bool
	// draining tells the handler to close after the in-flight response.
	draining bool
}

// NewServer builds a server; call Serve with one or more listeners.
func NewServer(opts Options) *Server {
	if opts.CacheEntries == 0 {
		opts.CacheEntries = 64
	}
	logf := opts.Logf
	if logf == nil {
		l := log.New(os.Stderr, "squashd ", log.LstdFlags|log.Lmicroseconds)
		logf = l.Printf
	}
	rec := opts.Obs
	if rec == nil {
		rec = &obs.Recorder{}
	}
	if rec.Metrics == nil {
		rec = &obs.Recorder{Trace: rec.Trace, Metrics: obs.NewRegistry()}
	}
	return &Server{
		opts:      opts,
		rec:       rec,
		pool:      parallel.NewPoolObs(opts.Workers, rec.Metrics),
		cache:     newResultCache(opts.CacheEntries, opts.CacheBytes),
		met:       newMetrics(rec.Metrics),
		logf:      logf,
		listeners: map[net.Listener]struct{}{},
		conns:     map[*connState]struct{}{},
	}
}

// Obs exposes the server's recorder: its registry backs the HTTP metrics
// endpoints and its tracer (when attached) holds the per-request spans.
func (s *Server) Obs() *obs.Recorder { return s.rec }

// Listen opens the daemon socket for an address spec ("unix:/path",
// "tcp:host:port", or bare "host:port"). A stale Unix socket file from a
// previous run is removed first.
func Listen(addr string) (net.Listener, error) {
	network, address := SplitAddr(addr)
	if network == "unix" {
		if _, err := os.Stat(address); err == nil {
			// Probe whether a live daemon owns it before unlinking.
			if c, err := net.Dial("unix", address); err == nil {
				c.Close()
				return nil, fmt.Errorf("serve: %s already has a live server", addr)
			}
			os.Remove(address)
		}
	}
	return net.Listen(network, address)
}

// Serve accepts connections until Shutdown. It returns ErrServerClosed
// after a graceful shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		cs := &connState{c: conn}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[cs] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handleConn(cs)
	}
}

func (s *Server) removeConn(cs *connState) {
	s.mu.Lock()
	delete(s.conns, cs)
	s.mu.Unlock()
	cs.c.Close()
	s.connWG.Done()
}

func (s *Server) handleConn(cs *connState) {
	defer s.removeConn(cs)
	setNoDelay(cs.c)
	codec := newServerCodec(cs.c, cs.c)
	codec.conn, codec.frameTimeout = cs.c, s.opts.Timeout
	defer codec.close()
	for {
		var req Request
		if err := codec.readRequest(&req); err != nil {
			var pe *protoError
			if errors.As(err, &pe) {
				// A protocol violation gets an explicit error frame
				// before the connection closes. Best-effort: the
				// connection closes whether or not the write lands.
				_ = codec.writeResponse(&Response{Err: pe.msg})
			}
			// EOF, client close, or the shutdown close of an idle
			// connection all end the session here.
			return
		}
		cs.mu.Lock()
		if cs.draining {
			// Shutdown won the race while the frame was in transit; the
			// request was never in flight, so it is not served.
			cs.mu.Unlock()
			req.releasePayload()
			return
		}
		cs.busy = true
		cs.mu.Unlock()

		resp := s.dispatch(&req)
		err := codec.writeResponse(resp)

		cs.mu.Lock()
		cs.busy = false
		drain := cs.draining
		cs.mu.Unlock()
		if err != nil || drain {
			return
		}
	}
}

// dispatch runs one request through the bounded pool with the per-request
// timeout and records metrics and the structured log line.
func (s *Server) dispatch(req *Request) *Response {
	id := s.reqID.Add(1)
	start := time.Now()
	s.opts.Record.Record(req)
	s.met.begin(req.Op)
	sp := s.rec.Span("squashd.request", "id", id, "op", req.Op, "bench", req.Bench, "items", len(req.Items))

	var resp *Response
	timedOut := false
	switch {
	case s.opts.Handler != nil:
		// Delegated serving (the router tier): the handler answers every
		// op inline on the connection goroutine. The payload releases only
		// after the handler returns — it may still be forwarding the
		// request's zero-copy sections.
		resp = s.guard(func() *Response { return s.opts.Handler(req) })
		req.releasePayload()
	case req.Op == OpStats:
		// Served inline: the stats endpoint must answer even when every
		// worker is busy — that is exactly when an operator asks.
		resp = &Response{OK: true, Server: s.met.snapshot()}
		req.releasePayload()
	case req.Op == OpPing:
		resp = &Response{OK: true}
		req.releasePayload()
	default:
		resp, timedOut = s.dispatchWork(req)
	}

	dur := time.Since(start)
	s.met.end(dur, !resp.OK, timedOut)
	sp.SetArg("cache", cacheLabel(resp))
	sp.SetArg("ok", resp.OK)
	sp.End()
	s.logf("req=%d op=%s bench=%q items=%d in_bytes=%d out_bytes=%d cache=%s dur=%s ok=%v err=%q",
		id, req.Op, req.Bench, len(req.Items), len(req.Obj)+len(req.Profile), respBytes(resp),
		cacheLabel(resp), dur.Round(time.Microsecond), resp.OK, resp.Err)
	return resp
}

// respBytes sums the image bytes a response carries, across batch results.
func respBytes(r *Response) int {
	n := len(r.Image)
	for i := range r.Results {
		n += len(r.Results[i].Image)
	}
	return n
}

func cacheLabel(r *Response) string {
	switch {
	case r.Cached && r.PrepCached:
		return "hit+prep"
	case r.Cached:
		return "hit"
	case r.PrepCached:
		return "prep"
	default:
		return "miss"
	}
}

// dispatchWork submits a squash/bench request to the worker pool and waits
// for its result or the request timeout.
func (s *Server) dispatchWork(req *Request) (*Response, bool) {
	ctx := context.Background()
	if s.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.Timeout)
		defer cancel()
	}
	done := make(chan *Response, 1) // buffered: a late worker never blocks
	// The frame buffer backing a request's payload recycles when the
	// worker finishes — not when the response is sent — because a timed-out
	// request's worker keeps reading the payload after the error response.
	if err := s.pool.Submit(ctx, func() {
		resp := s.guard(func() *Response { return s.process(req) })
		req.releasePayload()
		done <- resp
	}); err != nil {
		// Submit failed, so the closure will never run: the payload is
		// released here instead.
		req.releasePayload()
		if err == parallel.ErrPoolClosed {
			return errResponse("server shutting down"), false
		}
		return errResponse(fmt.Sprintf("request timed out in queue after %s", s.opts.Timeout)), true
	}
	select {
	case resp := <-done:
		return resp, false
	case <-ctx.Done():
		return errResponse(fmt.Sprintf("request timed out after %s", s.opts.Timeout)), true
	}
}

func errResponse(msg string) *Response { return &Response{Err: msg} }

// guard is the per-request panic boundary: a panic inside fn becomes an
// error response for that request alone, counted and logged with its
// stack, and the daemon, its connections and its warm cache carry on.
func (s *Server) guard(fn func() *Response) (resp *Response) {
	defer func() {
		if p := recover(); p != nil {
			s.met.panicked()
			s.logf("panic serving request: %v\n%s", p, debug.Stack())
			resp = errResponse(fmt.Sprintf("internal error: %v", p))
		}
	}()
	return fn()
}

// process executes one squash or bench request on a pool worker.
func (s *Server) process(req *Request) *Response {
	if d := s.testDelay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	conf := core.DefaultConfig()
	if req.Config != nil {
		conf = *req.Config
	}
	switch req.Op {
	case OpSquash:
		if len(req.Obj) == 0 || len(req.Profile) == 0 {
			return errResponse("squash request needs obj and profile bytes")
		}
		return s.squash(req.Obj, req.Profile, conf, false, req.NoImage)
	case OpBench:
		scale := req.Scale
		if scale == 0 {
			scale = 1.0
		}
		b, prepHit, err := experiments.PrepareSpec(req.Bench, scale, s.opts.PrepCacheDir)
		if err != nil {
			// The failed preparation still counts as a prep-cache miss —
			// returning early without recording it silently dropped errored
			// requests from the hit-rate denominator.
			s.met.prepCache(false)
			s.met.prepError()
			return errResponse(err.Error())
		}
		s.met.prepCache(prepHit)
		// The object and profile images live only for the duration of this
		// request (squash parses them and the result cache keys on their
		// content), so they serialize into pooled scratch.
		sc := getReqScratch()
		defer putReqScratch(sc)
		sc.obj.Reset()
		if _, err := b.SqObj.WriteTo(&sc.obj); err != nil {
			return errResponse(err.Error())
		}
		sc.prof.Reset()
		if _, err := b.Profile.WriteTo(&sc.prof); err != nil {
			return errResponse(err.Error())
		}
		resp := s.squash(sc.obj.Bytes(), sc.prof.Bytes(), conf, prepHit, req.NoImage)
		return resp
	case OpBatch:
		return s.processBatch(req)
	default:
		return errResponse(fmt.Sprintf("unknown op %q", req.Op))
	}
}

// squash answers from the warm result cache or runs the pipeline and fills
// it. The cached image bytes are exactly what the fresh path serializes, so
// hit and miss responses are byte-identical. noImage strips the image from
// the response only: the squash still runs, the cache still warms, and
// stats/footprint report exactly as with the image attached.
func (s *Server) squash(objBytes, profBytes []byte, conf core.Config, prepHit, noImage bool) *Response {
	if s.testPanic.Load() {
		panic("injected test panic")
	}
	id := s.cache.identify(objBytes, profBytes, conf)
	if e, ok := s.cache.get(&id); ok {
		s.met.squashCache(true)
		stats, foot := e.stats, e.foot
		resp := &Response{OK: true, Image: e.image, Stats: &stats, Foot: &foot,
			Cached: true, PrepCached: prepHit}
		if noImage {
			resp.Image = nil
		}
		return resp
	}
	s.met.squashCache(false)

	obj, err := objfile.ReadObject(bytes.NewReader(objBytes))
	if err != nil {
		return errResponse(fmt.Sprintf("bad object: %v", err))
	}
	counts, err := profile.ReadCounts(bytes.NewReader(profBytes))
	if err != nil {
		return errResponse(fmt.Sprintf("bad profile: %v", err))
	}
	out, err := core.SquashObs(obj, counts, conf, s.rec)
	if err != nil {
		return errResponse(err.Error())
	}
	// Serialize through pooled scratch; the cache and the response retain
	// only the exact-size copy, never the recycled buffer.
	sc := getReqScratch()
	defer putReqScratch(sc)
	image, err := serializeInto(&sc.img, out.Image)
	if err != nil {
		return errResponse(err.Error())
	}
	// put reports the post-eviction totals from inside its critical
	// section, so the gauges stay accurate even when a byte-budget insert
	// evicts several entries at once.
	entries, cacheBytes := s.cache.put(&id, image, out.Stats, out.Foot)
	s.met.resEntries.Set(int64(entries))
	s.met.resBytes.Set(cacheBytes)
	stats, foot := out.Stats, out.Foot
	resp := &Response{OK: true, Image: image, Stats: &stats, Foot: &foot,
		PrepCached: prepHit}
	if noImage {
		resp.Image = nil
	}
	return resp
}

// Shutdown stops accepting connections, drains in-flight requests, and
// waits (bounded by ctx) for every connection handler to finish. Idle
// connections are closed immediately; a connection mid-request writes its
// response first. After Shutdown, Serve returns ErrServerClosed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	conns := make([]*connState, 0, len(s.conns))
	for cs := range s.conns {
		conns = append(conns, cs)
	}
	s.mu.Unlock()

	for _, cs := range conns {
		cs.mu.Lock()
		cs.draining = true
		if !cs.busy {
			cs.c.Close()
		}
		cs.mu.Unlock()
	}

	drained := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		// Force-close whatever is left; handlers exit on the write error.
		s.mu.Lock()
		for cs := range s.conns {
			cs.c.Close()
		}
		s.mu.Unlock()
		err = ctx.Err()
	}
	s.pool.Close()
	s.logf("shutdown complete err=%v", err)
	return err
}

// StatsSnapshot exposes the live counters (tests and the -stats client).
func (s *Server) StatsSnapshot() *Snapshot { return s.met.snapshot() }
