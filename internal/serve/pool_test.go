package serve

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mediabench"
)

// drainPools empties every sync.Pool in the process: two GC cycles clear
// the pools and their victim caches, so the next requests allocate fresh
// buffers, as the code did before pooling.
func drainPools() {
	runtime.GC()
	runtime.GC()
}

// pollutePools squashes a different, much larger program (the adpcm
// MediaBench program) through the server at addr, leaving the serve and
// core pools warm and holding buffers grown and dirtied past the size of
// any test workload.
func pollutePools(t *testing.T, addr string) {
	t.Helper()
	spec, _ := mediabench.SpecByName("adpcm")
	obj, prof, _ := buildWorkloadSrc(t, spec.Generate(), spec.ProfilingInput(), core.DefaultConfig())
	cl, err := DialClient(addr)
	if err != nil {
		t.Fatalf("DialClient: %v", err)
	}
	defer cl.Close()
	resp, err := cl.Do(&Request{Op: OpSquash, Obj: obj, Profile: prof})
	if err != nil || !resp.OK {
		t.Fatalf("polluting squash: resp=%+v err=%v", resp, err)
	}
}

// TestServePooledWarmDeterminismInterleaved is the pooled-path determinism
// guard: a warm daemon — pools dirtied by a much larger program, result
// cache disabled so every request runs the full pipeline through recycled
// buffers — is hammered by concurrent clients interleaving requests of very
// different sizes, and every returned image must equal the one-shot squash
// of the same inputs with drained pools. Interleaving matters: a size-S
// request right after a size-XL one reuses the XL request's grown buffers,
// which is exactly where a stale-length or aliasing bug in the pools would
// surface. The CI race job runs this under -race, covering concurrent pool
// access.
func TestServePooledWarmDeterminismInterleaved(t *testing.T) {
	confA := core.DefaultConfig()
	confB := core.DefaultConfig()
	confB.Coder = core.CoderLZ
	confB.Theta = 0.01

	type workload struct {
		obj, prof, want []byte
		conf            core.Config
	}
	var loads []workload
	// Different seeds give programs of different sizes; both coders widen
	// the spread of buffer shapes a single pool sees.
	for _, seed := range []int64{3, 7, 11, 19} {
		for _, conf := range []core.Config{confA, confB} {
			drainPools()
			obj, prof, want := buildWorkload(t, seed, conf)
			loads = append(loads, workload{obj, prof, want, conf})
		}
	}

	s, addr, stop := startServer(t, Options{Workers: 4, CacheEntries: -1})
	defer stop()
	pollutePools(t, addr)

	const clients = 6
	const reqsPerClient = 10
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
				// Stride the workload list differently per client so the
				// server sees size transitions in varying orders.
				w := loads[(c*3+i*5)%len(loads)]
				resp, err := cl.Do(&Request{Op: OpSquash, Obj: w.obj, Profile: w.prof, Config: &w.conf})
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %v", c, i, err)
					return
				}
				if !resp.OK {
					errs <- fmt.Errorf("client %d req %d: server error: %s", c, i, resp.Err)
					return
				}
				if resp.Cached {
					errs <- fmt.Errorf("client %d req %d: cache hit with caching disabled", c, i)
					return
				}
				if !bytes.Equal(resp.Image, w.want) {
					errs <- fmt.Errorf("client %d req %d: pooled warm image diverged from drained-pool one-shot squash (%d vs %d bytes)",
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
	if snap.Errors != 0 {
		t.Fatalf("server reported %d errors", snap.Errors)
	}
}

// TestSerializeIntoCopiesExact: the bytes serializeInto returns are an
// independent copy — reusing the scratch buffer for a different payload must
// not disturb them — and are exactly sized (no growth slack retained).
func TestSerializeIntoCopiesExact(t *testing.T) {
	var buf bytes.Buffer
	first, err := serializeInto(&buf, bytes.NewReader([]byte("squashed image payload")))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), first...)
	if cap(first) != len(first) {
		t.Fatalf("copy has cap %d for len %d; cache entries would pin slack", cap(first), len(first))
	}
	if _, err := serializeInto(&buf, bytes.NewReader(bytes.Repeat([]byte{0xAA}, 4096))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want) {
		t.Fatal("buffer reuse mutated previously returned bytes")
	}
}
