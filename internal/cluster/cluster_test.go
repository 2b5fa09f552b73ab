package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/objfile"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/testprog"
	"repro/internal/vm"
)

// buildWorkload assembles a random test program, profiles it, and returns
// the serialized object and profile plus the byte-exact image the
// one-shot path produces — the identity target every routed response must
// hit.
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

// startCluster runs n squashd backends plus a router in front, and
// returns the router's client-facing address, the Router, and the
// backends' individual stop funcs (so tests can kill one mid-stream).
// Everything still running stops at the end of the test.
func startCluster(t *testing.T, n int, cfg Config) (addr string, r *Router, backendStops []func()) {
	t.Helper()
	for i := 0; i < n; i++ {
		a, stop := servetest.Serve(t, serve.Options{Workers: 2})
		cfg.Backends = append(cfg.Backends, a)
		backendStops = append(backendStops, stop)
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	r.Start()
	t.Cleanup(r.Stop)
	addr, _ = servetest.Serve(t, serve.Options{Handler: r.Handle})
	return addr, r, backendStops
}

// TestRendezvousStability: removing a backend moves only the keys it
// owned (every other key keeps its first pick), and adding one steals
// only the ~1/N of keys it now wins — the property that keeps per-backend
// result caches warm across fleet changes.
func TestRendezvousStability(t *testing.T) {
	mk := func(addrs ...string) []*Backend {
		out := make([]*Backend, len(addrs))
		for i, a := range addrs {
			out[i] = &Backend{Addr: a, hashSeed: fnv64a(a)}
		}
		return out
	}
	addrs := make([]string, 10)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("tcp:10.0.0.%d:7777", i)
	}
	full := mk(addrs...)

	const keys = 2000
	key := func(i int) [32]byte {
		var k [32]byte
		copy(k[:], fmt.Sprintf("key-%d", i))
		return k
	}
	first := make([]string, keys)
	for i := 0; i < keys; i++ {
		first[i] = rank(key(i), full, nil)[0].Addr
	}

	// Distribution sanity: every backend owns a non-trivial share.
	owned := map[string]int{}
	for _, a := range first {
		owned[a]++
	}
	for _, a := range addrs {
		if owned[a] < keys/len(addrs)/3 {
			t.Fatalf("backend %s owns only %d of %d keys — hash is badly skewed", a, owned[a], keys)
		}
	}

	// Remove backend 3: its keys move to their second choice, every other
	// key keeps its first pick.
	without := mk(append(append([]string{}, addrs[:3]...), addrs[4:]...)...)
	for i := 0; i < keys; i++ {
		got := rank(key(i), without, nil)[0].Addr
		if first[i] == addrs[3] {
			if got == addrs[3] {
				t.Fatalf("key %d still maps to the removed backend", i)
			}
			if want := rank(key(i), full, nil)[1].Addr; got != want {
				t.Fatalf("key %d fell to %s, want its second choice %s", i, got, want)
			}
		} else if got != first[i] {
			t.Fatalf("key %d moved from %s to %s though its backend never left", i, first[i], got)
		}
	}

	// Add an 11th backend: only the keys it now wins move, all to it, and
	// the moved share is ~1/11.
	grown := mk(append(append([]string{}, addrs...), "tcp:10.0.0.10:7777")...)
	moved := 0
	for i := 0; i < keys; i++ {
		got := rank(key(i), grown, nil)[0].Addr
		if got != first[i] {
			if got != "tcp:10.0.0.10:7777" {
				t.Fatalf("key %d moved to %s, not the new backend", i, got)
			}
			moved++
		}
	}
	frac := float64(moved) / keys
	if frac < 0.02 || frac > 0.25 {
		t.Fatalf("adding 1 of 11 backends moved %.1f%% of keys, want ~%.1f%%", frac*100, 100.0/11)
	}
}

// TestRouterByteIdentity: the router returns images byte-identical to
// the one-shot path — through single requests and through batches with
// duplicates and a per-item error.
func TestRouterByteIdentity(t *testing.T) {
	conf := core.DefaultConfig()
	obj1, prof1, want1 := buildWorkload(t, 3, conf)
	obj2, prof2, want2 := buildWorkload(t, 11, conf)

	// Rendezvous hashing is the router's placement.
	t.Run("hash", func(t *testing.T) {
		addr, _, _ := startCluster(t, 3, Config{})
		c, err := serve.DialClient(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		// Singles, twice each: second pass exercises backend cache hits
		// through the router.
		for pass := 0; pass < 2; pass++ {
			for _, w := range []struct{ obj, prof, want []byte }{
				{obj1, prof1, want1}, {obj2, prof2, want2},
			} {
				resp, err := c.Do(&serve.Request{Op: serve.OpSquash, Obj: w.obj, Profile: w.prof})
				if err != nil {
					t.Fatalf("do: %v", err)
				}
				if !resp.OK {
					t.Fatalf("squash failed: %s", resp.Err)
				}
				if !bytes.Equal(resp.Image, w.want) {
					t.Fatalf("pass %d: routed image differs from one-shot output", pass)
				}
			}
		}
		// A batch with a duplicate and a broken item: identity per item, dedup
		// marking intact, error isolated to its index.
		resp, err := c.Do(&serve.Request{Op: serve.OpBatch, Items: []serve.BatchItem{
			{Obj: obj1, Profile: prof1},
			{Obj: obj2, Profile: prof2},
			{Obj: obj1, Profile: prof1},
			{Obj: []byte("garbage"), Profile: prof1},
		}})
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		if !resp.OK || len(resp.Results) != 4 {
			t.Fatalf("batch response: ok=%v results=%d err=%q", resp.OK, len(resp.Results), resp.Err)
		}
		for i, want := range [][]byte{want1, want2, want1} {
			if !resp.Results[i].OK || !bytes.Equal(resp.Results[i].Image, want) {
				t.Fatalf("batch item %d: ok=%v, image identity=%v", i,
					resp.Results[i].OK, bytes.Equal(resp.Results[i].Image, want))
			}
		}
		if !resp.Results[2].Shared {
			t.Errorf("within-batch duplicate lost its Shared mark across the split")
		}
		if resp.Results[3].OK || resp.Results[3].Err == "" {
			t.Fatalf("malformed item 3 did not fail in isolation: %+v", resp.Results[3])
		}
	})
}

// TestRankAllocs: ranking a small fleet into caller scratch allocates
// nothing — it runs once per routed request and once per batch item.
func TestRankAllocs(t *testing.T) {
	live := []*Backend{
		{Addr: "unix:/a.sock", hashSeed: fnv64a("unix:/a.sock")},
		{Addr: "unix:/b.sock", hashSeed: fnv64a("unix:/b.sock")},
		{Addr: "unix:/c.sock", hashSeed: fnv64a("unix:/c.sock")},
	}
	dst := make([]*Backend, 0, len(live))
	var key [32]byte
	allocs := testing.AllocsPerRun(100, func() {
		key[0]++
		dst = rank(key, live, dst)
	})
	if allocs != 0 {
		t.Fatalf("rank allocated %.1f times per call, want 0", allocs)
	}
}

// TestRankOrder: the ranking is by descending rendezvous score with ties
// broken by address, whatever the input order.
func TestRankOrder(t *testing.T) {
	var live []*Backend
	for i := 0; i < 7; i++ {
		a := fmt.Sprintf("unix:/b%d.sock", i)
		live = append(live, &Backend{Addr: a, hashSeed: fnv64a(a)})
	}
	// Two backends sharing a seed tie on every key.
	live = append(live, &Backend{Addr: "unix:/tie.sock", hashSeed: live[3].hashSeed})
	for k := 0; k < 200; k++ {
		key := [32]byte{byte(k), byte(k >> 8)}
		got := rank(key, live, nil)
		rev := make([]*Backend, len(live))
		for i, b := range live {
			rev[len(live)-1-i] = b
		}
		if again := rank(key, rev, nil); fmt.Sprint(again) != fmt.Sprint(got) {
			t.Fatalf("key %d: ranking depends on input order", k)
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			sa, sb := rendezvousScore(a.hashSeed, key), rendezvousScore(b.hashSeed, key)
			if sa < sb || sa == sb && a.Addr > b.Addr {
				t.Fatalf("key %d: %s ranked before %s out of order", k, a.Addr, b.Addr)
			}
		}
	}
}

// TestRouterFailover: killing a backend mid-stream produces zero
// client-visible errors — requests reroute to the next-ranked live
// backend and the answers stay byte-identical throughout.
func TestRouterFailover(t *testing.T) {
	conf := core.DefaultConfig()
	obj1, prof1, want1 := buildWorkload(t, 3, conf)
	obj2, prof2, want2 := buildWorkload(t, 11, conf)

	addr, r, backendStops := startCluster(t, 3, Config{
		CheckInterval: 50 * time.Millisecond,
		CheckTimeout:  time.Second,
		FailAfter:     2,
	})

	c, err := serve.DialClient(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	do := func(i int) {
		t.Helper()
		w := []struct{ obj, prof, want []byte }{{obj1, prof1, want1}, {obj2, prof2, want2}}[i%2]
		resp, err := c.Do(&serve.Request{Op: serve.OpSquash, Obj: w.obj, Profile: w.prof})
		if err != nil {
			t.Fatalf("request %d: transport error surfaced to the client: %v", i, err)
		}
		if !resp.OK {
			t.Fatalf("request %d: client-visible error: %s", i, resp.Err)
		}
		if !bytes.Equal(resp.Image, w.want) {
			t.Fatalf("request %d: image diverged from one-shot output after failover", i)
		}
	}

	for i := 0; i < 10; i++ {
		do(i)
	}
	// Kill one backend mid-stream. Both keys may or may not live on it —
	// either way every later request must succeed via rerouting.
	backendStops[0]()
	for i := 10; i < 40; i++ {
		do(i)
	}
	// The health checker must have noticed by now (request-path failures
	// count toward the threshold too).
	deadline := time.Now().Add(5 * time.Second)
	for {
		cs := r.clusterSnapshot()
		if cs.Backends[0].State == StateDown {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend 0 still %q long after being killed", cs.Backends[0].State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Batches keep working too, with the dead backend's shards rerouted.
	resp, err := c.Do(&serve.Request{Op: serve.OpBatch, Items: []serve.BatchItem{
		{Obj: obj1, Profile: prof1}, {Obj: obj2, Profile: prof2},
	}})
	if err != nil || !resp.OK {
		t.Fatalf("batch after kill: err=%v resp.Err=%q", err, respErr(resp))
	}
	for i, want := range [][]byte{want1, want2} {
		if !resp.Results[i].OK || !bytes.Equal(resp.Results[i].Image, want) {
			t.Fatalf("batch item %d wrong after failover: ok=%v err=%q", i, resp.Results[i].OK, resp.Results[i].Err)
		}
	}
}

func respErr(r *serve.Response) string {
	if r == nil {
		return "<nil response>"
	}
	return r.Err
}

// TestRouterAdminPlane: drain/undrain steer traffic, the cluster
// snapshot tracks state, and merged stats sum across backends.
func TestRouterAdminPlane(t *testing.T) {
	conf := core.DefaultConfig()
	obj, prof, want := buildWorkload(t, 7, conf)

	addr, r, _ := startCluster(t, 2, Config{})

	c, err := serve.DialClient(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// Hash placement: every request for one key lands on one backend.
	for i := 0; i < 3; i++ {
		resp, err := c.Do(&serve.Request{Op: serve.OpSquash, Obj: obj, Profile: prof})
		if err != nil || !resp.OK || !bytes.Equal(resp.Image, want) {
			t.Fatalf("pre-drain request %d failed: err=%v", i, err)
		}
	}
	cs := r.clusterSnapshot()
	owner := 0
	if cs.Backends[1].Requests > 0 {
		owner = 1
	}
	other := 1 - owner
	if cs.Backends[owner].Requests != 3 || cs.Backends[other].Requests != 0 {
		t.Fatalf("hash routing split one key's traffic: %d / %d", cs.Backends[0].Requests, cs.Backends[1].Requests)
	}

	// Drain the key's owner over the wire; traffic must shift to the
	// other backend.
	ownerAddr := cs.Backends[owner].Addr
	resp, err := c.Do(&serve.Request{Op: serve.OpDrain, Backend: ownerAddr})
	if err != nil || !resp.OK {
		t.Fatalf("drain: err=%v resp=%+v", err, resp)
	}
	if resp.Cluster == nil || resp.Cluster.Backends[owner].State != StateDraining {
		t.Fatalf("drain response does not show backend %d draining: %+v", owner, resp.Cluster)
	}
	before := r.clusterSnapshot().Backends[other].Requests
	if resp, err := c.Do(&serve.Request{Op: serve.OpSquash, Obj: obj, Profile: prof}); err != nil || !resp.OK {
		t.Fatalf("drained-state request failed: %v", err)
	}
	if got := r.clusterSnapshot().Backends[other].Requests; got != before+1 {
		t.Fatalf("draining backend still took traffic: backend %d went %d -> %d", other, before, got)
	}

	// Undrain restores it.
	if resp, err := c.Do(&serve.Request{Op: serve.OpUndrain, Backend: ownerAddr}); err != nil || !resp.OK {
		t.Fatalf("undrain: err=%v resp=%+v", err, resp)
	}
	if st := r.clusterSnapshot().Backends[owner].State; st != StateUp {
		t.Fatalf("backend %d state after undrain = %q, want up", owner, st)
	}

	// Unknown backend is an error, not a silent no-op.
	if resp, err := c.Do(&serve.Request{Op: serve.OpDrain, Backend: "unix:/nope.sock"}); err != nil || resp.OK {
		t.Fatalf("drain of unknown backend: err=%v ok=%v", err, resp.OK)
	}

	// Merged stats over the wire: the squashes above must all be visible
	// in one fleet-wide snapshot.
	sresp, err := c.Do(&serve.Request{Op: serve.OpStats})
	if err != nil || !sresp.OK || sresp.Server == nil {
		t.Fatalf("stats through router: err=%v", err)
	}
	if got := sresp.Server.Requests[serve.OpSquash]; got < 4 {
		t.Fatalf("merged stats count %d squashes, want >= 4", got)
	}
	// OpCluster round-trips over the wire.
	cresp, err := c.Do(&serve.Request{Op: serve.OpCluster})
	if err != nil || !cresp.OK || cresp.Cluster == nil {
		t.Fatalf("cluster op: err=%v", err)
	}
	if bs := cresp.Cluster.Backends; len(bs) != 2 || bs[owner].Requests != 3 || bs[other].Requests != 1 {
		t.Fatalf("cluster snapshot: %+v", cresp.Cluster)
	}
}
