// Arena-style per-request scratch for the squash pipeline.
//
// Phase 3 of the encoder builds one final instruction sequence per region.
// The sequence lengths are known exactly once the layouts exist (every block
// instruction encodes to exactly one sequence entry, plus one entry per knit
// branch the layout inserted), so instead of growing one slice per region the
// encoder carves disjoint, exact-capacity subslices out of a single arena of
// instruction words. The arena and its slice headers recycle, making the
// warm squash O(1) allocations for sequence building regardless of region
// count.
//
// A sync.Pool alone did not keep the arena: a squash allocates several
// megabytes, so one or more garbage collections run between one squash's
// put and the next one's get, and two of them empty the pool. Squashing the
// perfbench programs in rotation made a fresh scratch on two squashes in
// three, sized exactly for its program and so reallocated again for the
// next, larger one. So one scratch is held outside the pool (spare), where
// collections cannot drop it; once it has served the largest program it is
// never regrown. Concurrent squashes beyond the first share the pool.
//
// Nothing reachable from Output aliases the arena: the sequences are
// consumed by coder training, compression, and metrics inside run() and the
// scratch is released when run() returns.
package core

import (
	"sync"
	"sync/atomic"
)

// encodeScratch is one request's sequence-building working set.
type encodeScratch struct {
	arena  []uint32   // backing storage for every region's word sequence
	seqs   [][]uint32 // per-region subslice headers, indexed by region ID
	counts []int      // per-region sequence lengths, indexed by region ID
}

var (
	encodeScratchPool = sync.Pool{New: func() any { return new(encodeScratch) }}
	spareScratch      atomic.Pointer[encodeScratch]
)

func getEncodeScratch() *encodeScratch {
	if sc := spareScratch.Swap(nil); sc != nil {
		return sc
	}
	return encodeScratchPool.Get().(*encodeScratch)
}

func putEncodeScratch(sc *encodeScratch) {
	// Drop the per-region headers so a retired, larger arena from a previous
	// request can't stay pinned through stale subslice pointers.
	for i := range sc.seqs {
		sc.seqs[i] = nil
	}
	if !spareScratch.CompareAndSwap(nil, sc) {
		encodeScratchPool.Put(sc)
	}
}

// partition sizes the arena for total instructions across n regions and
// returns per-region sequence storage: seqs[id] is an empty slice whose
// capacity is exactly counts[id], and the subslices are disjoint, so
// parallel region builds append into private memory with no reallocation.
func (sc *encodeScratch) partition(counts []int) [][]uint32 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if cap(sc.arena) < total {
		sc.arena = make([]uint32, 0, total)
	}
	arena := sc.arena[:total]
	if cap(sc.seqs) < len(counts) {
		sc.seqs = make([][]uint32, len(counts))
	}
	seqs := sc.seqs[:len(counts)]
	off := 0
	for id, c := range counts {
		seqs[id] = arena[off : off : off+c]
		off += c
	}
	return seqs
}

// seqCounts computes the exact sequence length of every region from its
// blocks and layout, into recycled storage.
func (sc *encodeScratch) seqCounts(e *encoder) []int {
	if cap(sc.counts) < len(e.res.Regions) {
		sc.counts = make([]int, len(e.res.Regions))
	}
	counts := sc.counts[:len(e.res.Regions)]
	for _, r := range e.res.Regions {
		n := 0
		for _, b := range r.Blocks {
			n += len(b.Insts)
		}
		counts[r.ID] = n + len(e.layouts[r.ID].inserted)
	}
	return counts
}
