package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		const n = 1000
		var hits [n]atomic.Int32
		if err := ForEach(n, workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroAndSmallN(t *testing.T) {
	if err := ForEach(0, 8, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := ForEach(1, 8, func(i int) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("single index not run")
	}
}

// TestForEachLowestIndexError checks the determinism contract: the surfaced
// error must be the lowest failing index's regardless of worker count or
// scheduling.
func TestForEachLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for trial := 0; trial < 20; trial++ {
			err := ForEach(100, workers, func(i int) error {
				if i%7 == 3 { // fails at 3, 10, 17, ...
					return fmt.Errorf("index %d failed", i)
				}
				return nil
			})
			if err == nil || err.Error() != "index 3 failed" {
				t.Fatalf("workers=%d: got %v, want index 3's error", workers, err)
			}
		}
	}
}

func TestForEachStopsClaimingAfterFailure(t *testing.T) {
	var ran atomic.Int32
	sentinel := errors.New("boom")
	err := ForEach(1_000_000, 4, func(i int) error {
		ran.Add(1)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
	if n := ran.Load(); n > 1000 {
		t.Fatalf("ran %d indices after failure; early exit broken", n)
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		out, err := Map(257, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	out, err := Map(10, 4, func(i int) (string, error) {
		if i >= 5 {
			return "", fmt.Errorf("bad %d", i)
		}
		return "ok", nil
	})
	if err == nil || err.Error() != "bad 5" {
		t.Fatalf("got %v", err)
	}
	if out != nil {
		t.Fatal("partial results returned on error")
	}
}

// TestForEachChunkNeverEmpty checks every chunk bound over small n and
// worker counts, where rounding the chunk size up used to leave a last
// chunk with lo > hi (n=5 at 4 workers gave [6,5)).
func TestForEachChunkNeverEmpty(t *testing.T) {
	for n := 1; n <= 64; n++ {
		for workers := 1; workers <= 16; workers++ {
			covered := make([]atomic.Int32, n)
			if err := ForEachChunk(n, workers, 1, func(lo, hi int) error {
				if lo < 0 || lo >= hi || hi > n {
					return fmt.Errorf("bad chunk [%d,%d)", lo, hi)
				}
				for i := lo; i < hi; i++ {
					covered[i].Add(1)
				}
				return nil
			}); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range covered {
				if c := covered[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d covered %d times", n, workers, i, c)
				}
			}
		}
	}
}

func TestForEachChunkCoversRange(t *testing.T) {
	for _, tc := range []struct{ n, workers, minChunk int }{
		{0, 4, 10}, {1, 4, 10}, {9, 4, 10}, {100, 4, 10}, {101, 3, 7}, {5000, 0, 64},
	} {
		var hits []atomic.Int32
		hits = make([]atomic.Int32, tc.n)
		if err := ForEachChunk(tc.n, tc.workers, tc.minChunk, func(lo, hi int) error {
			if lo >= hi && tc.n > 0 {
				return fmt.Errorf("empty chunk [%d,%d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
			return nil
		}); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("%+v: index %d covered %d times", tc, i, c)
			}
		}
	}
}
