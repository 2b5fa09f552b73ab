// Package parallel provides the worker-pool primitives the squash pipeline
// uses to spread per-function and per-region work across cores. The paper's
// compressor is an offline post-link step whose units (functions, regions,
// experiment matrix cells) are independent, so the only hard requirement is
// determinism: every helper here collects results in input order, and error
// reporting is by lowest index, so output is byte-identical at any worker
// count.
package parallel

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Workers resolves a configured worker count: values <= 0 mean one worker
// per available CPU (GOMAXPROCS).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// indexedErr pairs a failing index with its error so aggregation can pick a
// deterministic representative.
type indexedErr struct {
	idx int
	err error
}

// ForEach runs fn(i) for every i in [0, n) using at most workers
// goroutines. workers <= 0 means GOMAXPROCS; workers == 1 (or n < 2) runs
// inline with no goroutines. Indices are claimed dynamically for load
// balance, which is safe because each fn owns its index's results.
//
// If any calls fail, ForEach waits for in-flight calls, stops claiming new
// indices, and returns the error of the lowest failing index — the same
// error a serial left-to-right loop over side-effect-free fns would
// surface, so error text does not depend on the worker count.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errs   []indexedErr
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					errs = append(errs, indexedErr{i, err})
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if len(errs) == 0 {
		return nil
	}
	sort.Slice(errs, func(a, b int) bool { return errs[a].idx < errs[b].idx })
	return errs[0].err
}

// Map runs fn over [0, n) with ForEach's scheduling and returns the results
// in index order. On error the partial results are discarded.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForEachChunk splits [0, n) into contiguous chunks of at least minChunk
// items and runs fn(lo, hi) over them in parallel. It is the right shape for
// tight loops over flat arrays (instruction decode, byte scans) where
// per-index dispatch would dominate. Every chunk is non-empty. With
// n <= minChunk the single chunk runs inline.
func ForEachChunk(n, workers, minChunk int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if minChunk < 1 {
		minChunk = 1
	}
	workers = Workers(workers)
	chunks := (n + minChunk - 1) / minChunk
	if chunks > workers {
		chunks = workers
	}
	if chunks <= 1 {
		return fn(0, n)
	}
	size := (n + chunks - 1) / chunks
	// Rounding size up can leave fewer non-empty chunks than asked for
	// (n=5 in 4 chunks is 2+2+1), so count them again: every chunk then has
	// lo < hi <= n.
	chunks = (n + size - 1) / size
	return ForEach(chunks, chunks, func(c int) error {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		return fn(lo, hi)
	})
}
