// Package buffersafe implements the paper's buffer-safe function analysis
// (§6.1). A function is buffer-safe if neither it nor anything it can call
// or branch to will invoke the decompressor. A call from compressed code to
// a buffer-safe callee can be left unchanged: the runtime buffer cannot be
// overwritten during the callee's execution, so no restore stub and no
// extra buffer instruction are needed, and no re-decompression of the
// caller happens on return.
//
// The analysis is the paper's straightforward iterative one: seed the
// not-buffer-safe set with every function that owns a compressed block or
// contains an indirect call with unknown targets, then propagate backwards
// along call and branch edges until a fixed point.
package buffersafe

import (
	"sync"

	"repro/internal/cfg"
	"repro/internal/parallel"
)

// Result holds the buffer safety of every function, by its index in the
// analyzed program's Funcs.
type Result struct {
	Safe []bool
}

// IsSafe reports whether function fn (an index into Funcs) is
// buffer-safe.
func (r *Result) IsSafe(fn int32) bool { return r.Safe[fn] }

// AnalyzeWorkers computes buffer safety for every function of the numbered
// program x. compressed holds, by block number, the blocks chosen for
// compression. An address-taken function may be called from anywhere,
// including compressed code, but that does not make it unsafe by itself —
// only being unable to enumerate *its* callees does. The call-graph scan
// fans out over contiguous function ranges on the given worker count (<= 0
// means one per CPU); each range writes only its own functions' seeds, and
// propagation is a reachability closure, which no edge order changes, so
// the result is identical at any worker count.
func AnalyzeWorkers(x *cfg.Index, compressed []bool, workers int) *Result {
	nf := len(x.Prog.Funcs)
	unsafe := make([]bool, nf)
	// Function-level call and "branches into" edges, as (caller, callee)
	// pairs.
	var (
		mu    sync.Mutex
		edges [][2]int32
	)
	_ = parallel.ForEachChunk(nf, workers, 64, func(lo, hi int) error {
		var local [][2]int32
		for f := int32(lo); f < int32(hi); f++ {
			for i := x.FuncStart[f]; i < x.FuncStart[f+1]; i++ {
				callees := x.Callees(i)
				for k, c := range x.Calls(i) {
					switch {
					case c.Callee == "":
						unsafe[f] = true // unknown indirect call
					case callees[k] != cfg.NoBlock:
						local = append(local, [2]int32{f, x.Fn[callees[k]]})
					}
				}
				if x.Unresolved[i] {
					unsafe[f] = true
				}
				for _, s := range x.Succs(i) {
					if g := x.Fn[s]; g != f {
						// Inter-function branch (possible after rewriting).
						local = append(local, [2]int32{f, g})
					}
				}
				if compressed[i] {
					unsafe[f] = true
				}
			}
		}
		mu.Lock()
		edges = append(edges, local...)
		mu.Unlock()
		return nil
	})

	// Propagate: a function that can reach an unsafe function is unsafe.
	// Walk the reversed edges from every unsafe function.
	start := make([]int32, nf+1)
	for _, e := range edges {
		start[e[1]+1]++
	}
	for g := 0; g < nf; g++ {
		start[g+1] += start[g]
	}
	callers := make([]int32, len(edges))
	next := append([]int32(nil), start[:nf]...)
	for _, e := range edges {
		callers[next[e[1]]] = e[0]
		next[e[1]]++
	}
	var work []int32
	for f, u := range unsafe {
		if u {
			work = append(work, int32(f))
		}
	}
	for len(work) > 0 {
		g := work[len(work)-1]
		work = work[:len(work)-1]
		for _, f := range callers[start[g]:start[g+1]] {
			if !unsafe[f] {
				unsafe[f] = true
				work = append(work, f)
			}
		}
	}

	res := &Result{Safe: make([]bool, nf)}
	for f, u := range unsafe {
		res.Safe[f] = !u
	}
	return res
}

// CallSiteStats reports, over all call sites inside compressed blocks, how
// many have buffer-safe callees — the calls §6.1's optimization leaves
// unchanged. This is the statistic the paper summarizes as the fraction of
// buffer-safe callees among compressible regions' calls (≈12.5% on average
// for its benchmark suite).
func CallSiteStats(x *cfg.Index, compressed []bool, r *Result) (safeCalls, totalCalls int) {
	for i, c := range compressed {
		if !c {
			continue
		}
		for _, callee := range x.Callees(int32(i)) {
			totalCalls++
			if callee != cfg.NoBlock && r.Safe[x.Fn[callee]] {
				safeCalls++
			}
		}
	}
	return safeCalls, totalCalls
}
