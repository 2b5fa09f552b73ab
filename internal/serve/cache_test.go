package serve

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// confID is a request identity with empty payloads that differs from its
// siblings only in config, so the cache's resident bytes are images alone.
func confID(c *resultCache, i byte) requestID {
	conf := core.DefaultConfig()
	conf.Theta = float64(i)
	return c.identify(nil, nil, conf)
}

// checkCache verifies the cache's bookkeeping from its entries: every blob's
// reference count equals the entries holding it, no indexed blob is
// unreferenced, and the byte total is the images plus each blob once.
func checkCache(t *testing.T, c *resultCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) != c.order.Len() {
		t.Fatalf("index holds %d keys for %d resident entries", len(c.entries), c.order.Len())
	}
	refs := map[*blob]int{}
	var want int64
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if c.entries[e.key] != el {
			t.Fatalf("resident entry %#x is not indexed", e.key)
		}
		want += int64(len(e.image))
		refs[e.obj]++
		refs[e.prof]++
	}
	for b, n := range refs {
		if b.refs != n {
			t.Fatalf("blob of %d bytes has refs %d, held by %d", len(b.data), b.refs, n)
		}
		want += int64(len(b.data))
	}
	for _, b := range c.blobs {
		if refs[b] == 0 {
			t.Fatalf("indexed blob of %d bytes leaked with refs %d", len(b.data), b.refs)
		}
	}
	if c.bytes != want {
		t.Fatalf("cache counts %d bytes, entries hold %d", c.bytes, want)
	}
}

// newDirectServer builds a server whose squash path tests call directly,
// without a listener.
func newDirectServer(t *testing.T, opts Options) *Server {
	t.Helper()
	opts.Logf = t.Logf
	s := NewServer(opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// TestCacheKeyCollisionIsMiss forces every fast key (and blob hash) equal:
// distinct objects, or one object under two configs, must still each get
// their own image, in single requests and within a batch.
func TestCacheKeyCollisionIsMiss(t *testing.T) {
	confA := core.DefaultConfig()
	confB := core.DefaultConfig()
	confB.Theta = 0.01
	objA, profA, wantA := buildWorkload(t, 3, confA)
	objB, profB, wantB := buildWorkload(t, 11, confA)
	_, _, wantAB := buildWorkload(t, 3, confB)

	s := newDirectServer(t, Options{Workers: 2})
	s.cache.keyMask = 0

	cases := []struct {
		name      string
		obj, prof []byte
		conf      core.Config
		want      []byte
	}{
		{"A", objA, profA, confA, wantA},
		{"B", objB, profB, confA, wantB},
		{"A under confB", objA, profA, confB, wantAB},
	}
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			resp := s.squash(c.obj, c.prof, c.conf, false, false)
			if !resp.OK {
				t.Fatalf("round %d %s: %s", round, c.name, resp.Err)
			}
			if !bytes.Equal(resp.Image, c.want) {
				t.Fatalf("round %d %s: colliding key served another request's image", round, c.name)
			}
		}
		checkCache(t, s.cache)
	}
	// Back to back, the same request hits even under a forced collision.
	s.squash(objB, profB, confA, false, false)
	if resp := s.squash(objB, profB, confA, false, false); !resp.Cached || !bytes.Equal(resp.Image, wantB) {
		t.Fatalf("repeat request: cached=%v, image match=%v", resp.Cached, bytes.Equal(resp.Image, wantB))
	}

	resp := s.processBatch(&Request{Op: OpBatch, Items: []BatchItem{
		{Obj: objA, Profile: profA, Config: &confA},
		{Obj: objB, Profile: profB, Config: &confA},
		{Obj: objA, Profile: profA, Config: &confB},
		{Obj: objA, Profile: profA, Config: &confA},
	}})
	wants := [][]byte{wantA, wantB, wantAB, wantA}
	for i, r := range resp.Results {
		if !r.OK || !bytes.Equal(r.Image, wants[i]) {
			t.Fatalf("batch item %d: ok=%v err=%q, image match=%v", i, r.OK, r.Err, bytes.Equal(r.Image, wants[i]))
		}
		if r.Shared != (i == 3) {
			t.Fatalf("batch item %d: shared=%v", i, r.Shared)
		}
	}
	checkCache(t, s.cache)
}

// TestCacheIgnoresWorkers: requests that differ only in worker counts
// share one cache entry.
func TestCacheIgnoresWorkers(t *testing.T) {
	a := core.DefaultConfig()
	a.Workers = 1
	a.Regions.Workers = 1
	b := core.DefaultConfig()
	b.Workers = 8
	b.Regions.Workers = 3
	obj, prof, want := buildWorkload(t, 5, a)

	s := newDirectServer(t, Options{Workers: 1})
	if resp := s.squash(obj, prof, a, false, false); !resp.OK || resp.Cached {
		t.Fatalf("first request: ok=%v cached=%v err=%q", resp.OK, resp.Cached, resp.Err)
	}
	resp := s.squash(obj, prof, b, false, false)
	if !resp.Cached || !bytes.Equal(resp.Image, want) {
		t.Fatalf("worker counts fragmented the cache: cached=%v", resp.Cached)
	}
	if n := s.cache.len(); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
}

// TestCacheInternsSharedBlobs: entries for one object share a single
// interned copy of its bytes, which is a copy (not an alias of the request
// buffer) and is freed with the last entry that uses it.
func TestCacheInternsSharedBlobs(t *testing.T) {
	c := newResultCache(2, 0)
	objA, objB, prof := []byte("object A bytes"), []byte("object B"), []byte("profile")
	conf := func(theta float64) core.Config {
		cf := core.DefaultConfig()
		cf.Theta = theta
		return cf
	}
	put := func(obj []byte, theta float64) {
		// The request buffer is scribbled after put, as a recycled frame
		// buffer would be.
		req := bytes.Clone(obj)
		id := c.identify(req, prof, conf(theta))
		c.put(&id, []byte("image"), core.Stats{}, core.Footprint{})
		for i := range req {
			req[i] = 0xFF
		}
	}
	has := func(obj []byte, theta float64) bool {
		id := c.identify(obj, prof, conf(theta))
		_, ok := c.get(&id)
		return ok
	}

	put(objA, 1)
	put(objA, 2)
	checkCache(t, c)
	if len(c.blobs) != 2 {
		t.Fatalf("two entries for one object hold %d blobs, want 2 (object, profile)", len(c.blobs))
	}
	if _, bytes := c.size(); bytes != int64(2*len("image")+len(objA)+len(prof)) {
		t.Fatalf("resident bytes %d count a shared blob twice", bytes)
	}
	if !has(objA, 1) || !has(objA, 2) {
		t.Fatal("interned entry lost its request bytes when the request buffer was reused")
	}

	// B evicts A@1 (the LRU after the gets above refreshed A@2 last):
	// A's blob survives in A@2.
	put(objB, 1)
	checkCache(t, c)
	if has(objA, 1) || !has(objA, 2) {
		t.Fatal("wrong entry evicted")
	}
	if len(c.blobs) != 3 {
		t.Fatalf("blobs = %d, want 3 (A, B, profile)", len(c.blobs))
	}
	// Refresh B@1, so B@2 evicts A@2, the last holder of A's bytes.
	has(objB, 1)
	put(objB, 2)
	checkCache(t, c)
	if len(c.blobs) != 2 {
		t.Fatalf("blobs = %d after the last A entry left, want 2 (B, profile)", len(c.blobs))
	}
	if _, bytes := c.size(); bytes != int64(2*len("image")+len(objB)+len(prof)) {
		t.Fatalf("resident bytes %d after A's blob was freed", bytes)
	}
}

// TestResultCacheBytesCountBlobsOnce: the byte budget covers images plus
// interned request bytes, each blob counted once, and an over-budget insert
// evicts until both fit.
func TestResultCacheBytesCountBlobsOnce(t *testing.T) {
	c := newResultCache(100, 1000)
	objA, objB := make([]byte, 100), make([]byte, 100)
	objB[0] = 1
	prof := make([]byte, 50)
	put := func(obj []byte, theta float64, image int) (int, int64) {
		cf := core.DefaultConfig()
		cf.Theta = theta
		id := c.identify(obj, prof, cf)
		return c.put(&id, make([]byte, image), core.Stats{}, core.Footprint{})
	}
	steps := []struct {
		obj     []byte
		theta   float64
		entries int
		bytes   int64
	}{
		{objA, 1, 1, 200 + 100 + 50},
		{objA, 2, 2, 2*200 + 100 + 50},
		{objB, 1, 3, 3*200 + 2*100 + 50},
		// 1050 > 1000: A@1 goes; A's blob stays with A@2.
		{objB, 2, 3, 3*200 + 2*100 + 50},
		// A@2 goes too, and with it A's blob: 850 - 200 - 100 + 200.
		{objB, 3, 3, 3*200 + 100 + 50},
	}
	for i, st := range steps {
		entries, bytes := put(st.obj, st.theta, 200)
		if entries != st.entries || bytes != st.bytes {
			t.Fatalf("step %d: (%d entries, %d bytes), want (%d, %d)", i, entries, bytes, st.entries, st.bytes)
		}
		checkCache(t, c)
	}
	// Image plus request bytes over the whole budget: refused, totals
	// unchanged.
	if entries, bytes := put(objA, 9, 900); entries != 3 || bytes != 3*200+100+50 {
		t.Fatalf("oversized insert changed totals to (%d, %d)", entries, bytes)
	}
	checkCache(t, c)
}

// TestCacheConcurrentMisses: many workers that all miss on one request and
// insert it at once leave one resident entry and no leaked blob reference.
// Run under -race.
func TestCacheConcurrentMisses(t *testing.T) {
	c := newResultCache(4, 0)
	obj, prof := []byte("the object"), []byte("the profile")
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cf := core.DefaultConfig()
			cf.Workers = w // must not split the entry
			for i := 0; i < 50; i++ {
				// A fresh copy per request, as each request has its own
				// frame buffer.
				id := c.identify(bytes.Clone(obj), bytes.Clone(prof), cf)
				if e, ok := c.get(&id); ok {
					if string(e.image) != "image" {
						t.Errorf("hit served %q", e.image)
					}
					continue
				}
				c.put(&id, []byte("image"), core.Stats{}, core.Footprint{})
			}
			// Distinct configs churn the LRU concurrently.
			cf.Theta = float64(w)
			id := c.identify(obj, prof, cf)
			c.put(&id, []byte(fmt.Sprint(w)), core.Stats{}, core.Footprint{})
		}(w)
	}
	wg.Wait()
	checkCache(t, c)
	if len(c.blobs) != 2 {
		t.Fatalf("one object and one profile interned as %d blobs", len(c.blobs))
	}
}

// TestPanicBoundary: a panic while processing a request becomes an error
// response on that connection; the daemon, the connection and the warm
// cache survive, and the panic is counted in the stats and /metrics.
func TestPanicBoundary(t *testing.T) {
	conf := core.DefaultConfig()
	objA, profA, wantA := buildWorkload(t, 3, conf)
	objB, profB, _ := buildWorkload(t, 11, conf)

	s, addr, stop := startServer(t, Options{Workers: 2})
	defer stop()
	cl, err := DialClient(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	do := func(req *Request) *Response {
		t.Helper()
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatalf("do: %v", err)
		}
		return resp
	}

	if resp := do(&Request{Op: OpSquash, Obj: objA, Profile: profA, Config: &conf}); !resp.OK {
		t.Fatalf("warm-up: %s", resp.Err)
	}
	s.testPanic.Store(true)
	resp := do(&Request{Op: OpSquash, Obj: objB, Profile: profB, Config: &conf})
	if resp.OK || !strings.Contains(resp.Err, "internal error") {
		t.Fatalf("panicking request answered %+v, want an internal error", resp)
	}
	// A batch turns each panicking item into its own error result.
	resp = do(&Request{Op: OpBatch, Items: []BatchItem{
		{Obj: objA, Profile: profA, Config: &conf},
		{Obj: objB, Profile: profB, Config: &conf},
	}})
	if !resp.OK || len(resp.Results) != 2 {
		t.Fatalf("batch frame: ok=%v err=%q results=%d", resp.OK, resp.Err, len(resp.Results))
	}
	for i, r := range resp.Results {
		if r.OK || !strings.Contains(r.Err, "internal error") {
			t.Fatalf("batch item %d answered ok=%v err=%q", i, r.OK, r.Err)
		}
	}
	s.testPanic.Store(false)

	// Same connection, and the warm entry from before the panics is still
	// served.
	resp = do(&Request{Op: OpSquash, Obj: objA, Profile: profA, Config: &conf})
	if !resp.OK || !resp.Cached || !bytes.Equal(resp.Image, wantA) {
		t.Fatalf("after panics: ok=%v cached=%v err=%q", resp.OK, resp.Cached, resp.Err)
	}
	if got := s.StatsSnapshot().Panics; got != 3 {
		t.Fatalf("stats count %d panics, want 3", got)
	}
	var prom strings.Builder
	if err := s.Obs().Metrics.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "squashd_panics_total 3") {
		t.Fatalf("/metrics lacks squashd_panics_total 3:\n%s", prom.String())
	}
}

// TestPanicBoundaryHandler: the boundary also wraps a delegated handler
// (the router and profile-plane daemons), which runs on the connection
// goroutine.
func TestPanicBoundaryHandler(t *testing.T) {
	s, addr, stop := startServer(t, Options{Handler: func(req *Request) *Response {
		if req.Op == OpSquash {
			panic("handler bug")
		}
		return &Response{OK: true}
	}})
	defer stop()
	cl, err := DialClient(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	resp, err := cl.Do(&Request{Op: OpSquash, Obj: []byte("o"), Profile: []byte("p")})
	if err != nil || resp.OK || !strings.Contains(resp.Err, "handler bug") {
		t.Fatalf("panicking handler answered %+v, err %v", resp, err)
	}
	if resp, err := cl.Do(&Request{Op: OpPing}); err != nil || !resp.OK {
		t.Fatalf("connection did not survive the panic: %+v, err %v", resp, err)
	}
	if got := s.StatsSnapshot().Panics; got != 1 {
		t.Fatalf("stats count %d panics, want 1", got)
	}
}
