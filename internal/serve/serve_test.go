package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/objfile"
	"repro/internal/profile"
	"repro/internal/testprog"
	"repro/internal/vm"
)

// buildWorkload assembles a random test program, profiles it, and returns
// the serialized object and profile plus the byte-exact image the one-shot
// path (cmd/squash's core.Squash + Image.WriteTo) produces for conf.
func buildWorkload(t *testing.T, seed int64, conf core.Config) (objBytes, profBytes, wantImage []byte) {
	t.Helper()
	src := testprog.Random(seed)
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	m := vm.New(im, []byte("serve-mode determinism input"))
	m.EnableProfile()
	if err := m.Run(); err != nil {
		t.Fatalf("profile run: %v", err)
	}

	var ob, pb bytes.Buffer
	if _, err := obj.WriteTo(&ob); err != nil {
		t.Fatalf("serialize object: %v", err)
	}
	if _, err := profile.Counts(m.Profile).WriteTo(&pb); err != nil {
		t.Fatalf("serialize profile: %v", err)
	}

	out, err := core.Squash(obj, m.Profile, conf)
	if err != nil {
		t.Fatalf("one-shot squash: %v", err)
	}
	var img bytes.Buffer
	if _, err := out.Image.WriteTo(&img); err != nil {
		t.Fatalf("serialize image: %v", err)
	}
	return ob.Bytes(), pb.Bytes(), img.Bytes()
}

// startServer runs a server on a Unix socket in a temp dir and returns its
// address plus a shutdown func. Logs go to the test log.
func startServer(t *testing.T, opts Options) (*Server, string, func()) {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	s := NewServer(opts)
	addr := "unix:" + filepath.Join(t.TempDir(), "squashd.sock")
	ln, err := Listen(addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	}
	return s, addr, stop
}

// rawConn is a bare connection that writes a request and reads its
// response as separate steps, for tests that act between the two.
type rawConn struct {
	net.Conn
	br *bufio.Reader
	sc *frameScratch
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial(SplitAddr(addr))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	rc := &rawConn{Conn: conn, br: bufio.NewReader(conn), sc: getFrameScratch()}
	t.Cleanup(func() {
		conn.Close()
		putFrameScratch(rc.sc)
	})
	return rc
}

// send writes one request frame.
func (rc *rawConn) send(req *Request) error {
	bw := bufio.NewWriter(rc.Conn)
	if err := writeRequestFrame(bw, rc.sc, req); err != nil {
		return err
	}
	return bw.Flush()
}

// recv reads and decodes one response frame.
func (rc *rawConn) recv(resp *Response) error {
	fb, env, pay, err := readFrameBody(rc.br)
	if err != nil {
		return err
	}
	defer fb.release()
	return decodeResponse(rc.sc, env, pay, resp)
}

// TestServeDeterminismConcurrentClients is the tentpole guarantee: the
// daemon's output is byte-identical to one-shot cmd/squash for the same
// inputs, with many clients hammering it at once, and the repeats show up
// as warm-cache hits in the stats.
func TestServeDeterminismConcurrentClients(t *testing.T) {
	// Two distinct workloads under two configs each: cache must key them
	// apart while still hitting on exact repeats.
	confA := core.DefaultConfig()
	confB := core.DefaultConfig()
	confB.Theta = 0.01
	confB.MTF = true

	type workload struct {
		obj, prof, want []byte
		conf            core.Config
	}
	var loads []workload
	for _, seed := range []int64{3, 11} {
		for _, conf := range []core.Config{confA, confB} {
			obj, prof, want := buildWorkload(t, seed, conf)
			loads = append(loads, workload{obj, prof, want, conf})
		}
	}

	s, addr, stop := startServer(t, Options{Workers: 4})
	defer stop()

	const clients = 6
	const reqsPerClient = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := DialClient(addr)
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %v", c, err)
				return
			}
			defer cl.Close()
			for i := 0; i < reqsPerClient; i++ {
				w := loads[(c+i)%len(loads)]
				conf := w.conf
				// Vary the request's worker count: the daemon must stay
				// byte-identical regardless (cache keys ignore workers).
				conf.Workers = 1 + (c+i)%4
				resp, err := cl.Do(&Request{Op: OpSquash, Obj: w.obj, Profile: w.prof, Config: &conf})
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %v", c, i, err)
					return
				}
				if !resp.OK {
					errs <- fmt.Errorf("client %d req %d: server error: %s", c, i, resp.Err)
					return
				}
				if !bytes.Equal(resp.Image, w.want) {
					errs <- fmt.Errorf("client %d req %d: image diverged from one-shot squash (%d vs %d bytes)",
						c, i, len(resp.Image), len(w.want))
					return
				}
			}
			errs <- nil
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	snap := s.StatsSnapshot()
	total := clients * reqsPerClient
	if got := snap.SquashCacheHits + snap.SquashCacheMisses; got != uint64(total) {
		t.Fatalf("cache lookups = %d, want %d", got, total)
	}
	// 4 distinct (obj, prof, conf) keys; everything past first-computation
	// must hit. Concurrent first requests can each miss, but the cache is
	// still required to absorb the bulk of the load.
	if snap.SquashCacheHits < uint64(total/2) {
		t.Fatalf("cache hits = %d of %d requests; warm state is not being reused", snap.SquashCacheHits, total)
	}
	if snap.Requests[OpSquash] != uint64(total) {
		t.Fatalf("requests[squash] = %d, want %d", snap.Requests[OpSquash], total)
	}
	if snap.Errors != 0 {
		t.Fatalf("server reported %d errors", snap.Errors)
	}
	if snap.Latency.Count == 0 {
		t.Fatal("latency window is empty after serving requests")
	}
}

// TestServeShutdownDrainsInFlight: a request already being processed when
// Shutdown starts still gets its response, new connections are refused, and
// Shutdown returns only after the drain.
func TestServeShutdownDrainsInFlight(t *testing.T) {
	obj, prof, want := buildWorkload(t, 5, core.DefaultConfig())

	s, addr, _ := startServer(t, Options{Workers: 2})
	s.testDelay.Store(int64(150 * time.Millisecond))

	conn := dialRaw(t, addr)

	// Fire the request and give the server time to pull it onto a worker.
	if err := conn.send(&Request{Op: OpSquash, Obj: obj, Profile: prof}); err != nil {
		t.Fatalf("write request: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.StatsSnapshot().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// The in-flight request must complete with the correct bytes.
	var resp Response
	if err := conn.recv(&resp); err != nil {
		t.Fatalf("read response during shutdown: %v", err)
	}
	if !resp.OK {
		t.Fatalf("in-flight request failed during shutdown: %s", resp.Err)
	}
	if !bytes.Equal(resp.Image, want) {
		t.Fatal("drained response diverged from one-shot squash")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The connection was drained closed: the next read reports EOF.
	if err := conn.recv(&resp); err == nil {
		t.Fatal("connection still serving after drain")
	}
	// And new connections are refused.
	if c, err := DialClient(addr); err == nil {
		c.Close()
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestServeRequestTimeout: a request slower than the server timeout gets an
// error response (the connection stays usable) and the timeout counter
// moves.
func TestServeRequestTimeout(t *testing.T) {
	s, addr, stop := startServer(t, Options{Workers: 1, Timeout: 30 * time.Millisecond})
	defer stop()
	s.testDelay.Store(int64(500 * time.Millisecond))

	cl, err := DialClient(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	obj, prof, _ := buildWorkload(t, 7, core.DefaultConfig())
	resp, err := cl.Do(&Request{Op: OpSquash, Obj: obj, Profile: prof})
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if resp.OK {
		t.Fatal("request succeeded despite exceeding the server timeout")
	}
	if snap := s.StatsSnapshot(); snap.Timeouts == 0 {
		t.Fatalf("timeouts = 0 after a timed-out request (snapshot %+v)", snap)
	}

	// The same connection still answers once the stall is irrelevant.
	s.testDelay.Store(0)
	// The timed-out squash may still hold the single worker; wait for it.
	pingOK := false
	for d := time.Now().Add(5 * time.Second); time.Now().Before(d); {
		r, err := cl.Do(&Request{Op: OpPing})
		if err != nil {
			t.Fatalf("ping after timeout: %v", err)
		}
		if r.OK {
			pingOK = true
			break
		}
	}
	if !pingOK {
		t.Fatal("connection unusable after a timed-out request")
	}
}

// TestServeBadRequests: malformed requests produce error responses, not
// dropped connections, and count as errors in the stats.
func TestServeBadRequests(t *testing.T) {
	s, addr, stop := startServer(t, Options{Workers: 1})
	defer stop()
	cl, err := DialClient(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	cases := []*Request{
		{Op: "nonsense"},
		{Op: OpSquash}, // missing payloads
		{Op: OpSquash, Obj: []byte("garbage"), Profile: []byte("garbage")},
		{Op: OpBench, Bench: "no-such-benchmark"},
	}
	for _, req := range cases {
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatalf("op %q: transport error: %v", req.Op, err)
		}
		if resp.OK {
			t.Fatalf("op %q: accepted a malformed request", req.Op)
		}
		if resp.Err == "" {
			t.Fatalf("op %q: error response with no message", req.Op)
		}
	}
	if snap := s.StatsSnapshot(); snap.Errors != uint64(len(cases)) {
		t.Fatalf("errors = %d, want %d", snap.Errors, len(cases))
	}
	// The connection survives all of it.
	if resp, err := cl.Do(&Request{Op: OpPing}); err != nil || !resp.OK {
		t.Fatalf("ping after bad requests: resp=%+v err=%v", resp, err)
	}
}

// TestServeStatsInline: OpStats answers even with every worker occupied.
func TestServeStatsInline(t *testing.T) {
	s, addr, stop := startServer(t, Options{Workers: 1})
	defer stop()
	s.testDelay.Store(int64(300 * time.Millisecond))

	obj, prof, _ := buildWorkload(t, 9, core.DefaultConfig())
	busy := dialRaw(t, addr)
	if err := busy.send(&Request{Op: OpSquash, Obj: obj, Profile: prof}); err != nil {
		t.Fatalf("write: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.StatsSnapshot().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	cl, err := DialClient(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	start := time.Now()
	resp, err := cl.Do(&Request{Op: OpStats})
	if err != nil || !resp.OK || resp.Server == nil {
		t.Fatalf("stats: resp=%+v err=%v", resp, err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("stats took %s; it must not queue behind squash work", d)
	}
	if resp.Server.InFlight == 0 {
		t.Fatal("stats snapshot does not show the in-flight squash")
	}
	// Let the busy request finish so shutdown drains promptly.
	var busyResp Response
	if err := busy.recv(&busyResp); err != nil {
		t.Fatalf("busy response: %v", err)
	}
}

// TestResultKeyIgnoresWorkers: worker counts must not fragment the
// placement and recording keys — the pipeline output is identical across
// them, so the router must send both spellings to the same backend cache.
// (The result cache's own identity is covered in cache_test.go.)
func TestResultKeyIgnoresWorkers(t *testing.T) {
	obj, prof := []byte("obj"), []byte("prof")
	a := core.DefaultConfig()
	a.Workers = 1
	a.Regions.Workers = 1
	b := core.DefaultConfig()
	b.Workers = 8
	b.Regions.Workers = 3
	route := func(obj []byte, conf core.Config) [32]byte {
		k, ok := RouteKey(&Request{Op: OpSquash, Obj: obj, Profile: prof, Config: &conf})
		if !ok {
			t.Fatal("squash request not routed by content")
		}
		if item := RouteKeyItem(&BatchItem{Obj: obj, Profile: prof, Config: &conf}); item != k {
			t.Fatal("batch item and single request route differently")
		}
		return k
	}
	if route(obj, a) != route(obj, b) {
		t.Fatal("worker counts changed the route key")
	}
	if contentKey(obj, prof, &a) != contentKey(obj, prof, &b) {
		t.Fatal("worker counts changed the recorded content key")
	}
	c := core.DefaultConfig()
	c.Theta = 0.123
	if route(obj, a) == route(obj, c) || contentKey(obj, prof, &a) == contentKey(obj, prof, &c) {
		t.Fatal("distinct configs collided")
	}
	if route(obj, a) == route([]byte("obj2"), a) || contentKey(obj, prof, &a) == contentKey([]byte("obj2"), prof, &a) {
		t.Fatal("distinct objects collided")
	}
}

// TestResultCacheEvicts: the LRU stays bounded and evicts oldest-first.
func TestResultCacheEvicts(t *testing.T) {
	c := newResultCache(2, 0)
	put := func(i byte) {
		id := confID(c, i)
		c.put(&id, []byte{i}, core.Stats{}, core.Footprint{})
	}
	has := func(i byte) bool {
		id := confID(c, i)
		_, ok := c.get(&id)
		return ok
	}
	for i := byte(1); i <= 3; i++ {
		put(i)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if has(1) {
		t.Fatal("oldest entry survived past capacity")
	}
	if !has(3) {
		t.Fatal("newest entry missing")
	}
	// A get refreshes recency: touch 2, insert 4, and 3 should go instead.
	has(2)
	put(4)
	if !has(2) {
		t.Fatal("recently used entry evicted")
	}
	if has(3) {
		t.Fatal("least recently used entry survived")
	}
}

// TestSplitAddr covers the three address spellings.
func TestSplitAddr(t *testing.T) {
	cases := []struct{ in, net, addr string }{
		{"unix:/tmp/x.sock", "unix", "/tmp/x.sock"},
		{"tcp:127.0.0.1:900", "tcp", "127.0.0.1:900"},
		{"127.0.0.1:900", "tcp", "127.0.0.1:900"},
	}
	for _, c := range cases {
		n, a := SplitAddr(c.in)
		if n != c.net || a != c.addr {
			t.Fatalf("SplitAddr(%q) = (%q, %q), want (%q, %q)", c.in, n, a, c.net, c.addr)
		}
	}
}

// TestListenReplacesStaleSocket: a dead socket file is replaced; a live one
// is refused.
func TestListenReplacesStaleSocket(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stale.sock")
	ln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatalf("first listen: %v", err)
	}
	// Simulate a crashed daemon: close the listener but leave the file.
	// Go removes the file on Close, so recreate the stale-file state.
	ln.Close()
	if f, err := net.Listen("unix", path); err == nil {
		f.(*net.UnixListener).SetUnlinkOnClose(false)
		f.Close()
	}
	ln2, err := Listen("unix:" + path)
	if err != nil {
		t.Fatalf("listen over stale socket: %v", err)
	}
	defer ln2.Close()

	// A second daemon must refuse the live socket.
	if _, err := Listen("unix:" + path); err == nil {
		t.Fatal("second listener took over a live socket")
	}
}
