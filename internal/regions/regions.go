// Package regions implements the paper's compressible-region formation
// (§4). The unit of compression is not the source-level function but an
// arbitrary region of cold basic blocks, chosen to balance the size of the
// runtime buffer (which must hold the largest decompressed region) against
// the number of entry stubs and function-offset-table entries.
//
// The optimization problem is NP-hard (the paper reduces PARTITION to it),
// so, as in the paper, a heuristic is used: bounded depth-first search over
// the control-flow graph forms initial single-function regions, a
// profitability test (entry-stub cost versus expected compression savings)
// filters them, and a packing pass repeatedly merges the pair of regions
// with the greatest savings while respecting the buffer bound.
package regions

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/parallel"
)

// Config parameterizes region formation.
type Config struct {
	// K is the runtime buffer bound in bytes (paper default: 512).
	K int
	// Gamma is the assumed compression factor γ < 1: a region of I
	// instructions is expected to compress to γ·I instructions' worth of
	// bits (paper: split-stream coding achieves ≈0.66).
	Gamma float64
	// Pack enables the region-packing pass (on in the paper; switchable
	// for the ablation benchmarks).
	Pack bool
	// Strategy selects the construction algorithm (the paper's DFS, or the
	// loop-aware extension of §9's future work).
	Strategy Strategy
	// Workers bounds the goroutines used by the per-function analysis
	// passes (predecessor graph, compressibility classification); <= 0
	// means one per CPU. Region construction itself stays sequential — the
	// greedy DFS shares an assignment set — so results are identical at
	// any worker count.
	Workers int
}

// DefaultConfig returns the paper's parameter choices.
func DefaultConfig() Config { return Config{K: 512, Gamma: 0.66, Pack: true} }

// EntryStubWords is the size of one entry stub: a call to the decompressor
// plus a tag word (paper: "the constant 2 is the number of words required
// for an entry stub").
const EntryStubWords = 2

// Region is one unit of compression/decompression.
type Region struct {
	ID     int
	Blocks []*cfg.Block // layout order
}

// NumInsts reports the region's size in instructions.
func (r *Region) NumInsts() int {
	n := 0
	for _, b := range r.Blocks {
		n += len(b.Insts)
	}
	return n
}

// Result is the outcome of partitioning.
type Result struct {
	Regions []*Region
	// InRegion maps block label to region ID, or absent if uncompressed.
	InRegion map[string]int
	// Excluded maps cold-but-uncompressible block labels to the reason.
	Excluded map[string]string
	// ColdInsts and CompressibleInsts support the Figure 4 reproduction.
	ColdInsts         int
	CompressibleInsts int
	TotalInsts        int
}

// Entries reports the labels of region r's entry blocks: blocks reachable
// from outside the region (branch/fallthrough predecessors outside r, call
// targets, address-taken blocks, or the program entry). These each require
// an entry stub.
func (res *Result) Entries(p *Preds, r *Region) []string {
	memberOf := func(label string) (int, bool) {
		id, ok := res.InRegion[label]
		return id, ok
	}
	return EntriesOf(p, r, memberOf)
}

// EntriesOf is Entries with an explicit membership function, so the packing
// pass can evaluate hypothetical merges without mutating the result.
func EntriesOf(p *Preds, r *Region, memberOf func(string) (int, bool)) []string {
	var out []string
	for _, b := range r.Blocks {
		if isEntry(p, r, b, memberOf) {
			out = append(out, b.Label)
		}
	}
	return out
}

func isEntry(p *Preds, r *Region, b *cfg.Block, memberOf func(string) (int, bool)) bool {
	if p.AddressTaken[b.Label] || p.ProgramEntry == b.Label {
		return true
	}
	external := func(pred string) bool {
		id, in := memberOf(pred)
		return !in || id != r.ID
	}
	for pred := range p.FlowPreds[b.Label] {
		if external(pred) {
			return true
		}
	}
	for caller := range p.CallPreds[b.Label] {
		if external(caller) {
			return true
		}
	}
	return false
}

// Preds is the program-wide predecessor index used for entry-point and
// packing computations.
type Preds struct {
	// FlowPreds[b] = blocks with a branch or fallthrough edge to b.
	FlowPreds map[string]map[string]bool
	// CallPreds[entry] = blocks containing a call to the function whose
	// entry block is entry.
	CallPreds map[string]map[string]bool
	// AddressTaken marks labels whose address escapes into data or into a
	// register (la): control may arrive from anywhere.
	AddressTaken map[string]bool
	ProgramEntry string
}

// BufferWords reports the exact number of runtime-buffer words region r
// occupies when decompressed: the leading dispatch jump, the instructions
// themselves, one branch per fallthrough edge broken by the layout or
// leaving the region, and one extra word per call expanded into the
// CreateStub sequence (c_i in the paper's cost model). safeCallee reports
// callees proven buffer-safe (§6.1), whose calls are not expanded; pass nil
// for the conservative bound.
func BufferWords(r *Region, safeCallee func(string) bool) int {
	words := 1 // leading jump to the entry offset
	for i, b := range r.Blocks {
		words += len(b.Insts)
		if b.FallsTo != "" {
			next := ""
			if i+1 < len(r.Blocks) {
				next = r.Blocks[i+1].Label
			}
			if b.FallsTo != next {
				words++ // explicit branch inserted by the region layout
			}
		}
		// Every call from the buffer to a non-buffer-safe callee expands
		// into the CreateStub pair — including calls to targets in the
		// same region, whose bodies may still branch to other regions.
		for _, c := range b.Calls() {
			if safeCallee != nil && c.Callee != "" && safeCallee(c.Callee) {
				continue
			}
			words++
		}
	}
	return words
}

// compressible classifies which cold blocks may be compressed at all, and
// records exclusion reasons for the rest (paper: §2.2 setjmp, §4 unknown
// control flow, §6.2 unresolved jump tables).
func compressible(p *cfg.Program, cold map[string]bool, workers int) (map[string]*cfg.Block, map[string]string) {
	type verdict struct {
		block  *cfg.Block
		reason string // empty when compressible
	}
	scans, _ := parallel.Map(len(p.Funcs), workers, func(fi int) ([]verdict, error) {
		f := p.Funcs[fi]
		setjmp := f.CallsSetjmp()
		// An unresolved indirect jump poisons the whole function: any block
		// could be its target.
		poisoned := false
		for _, b := range f.Blocks {
			if _, known := b.Succs(); !known {
				poisoned = true
			}
		}
		var out []verdict
		for _, b := range f.Blocks {
			if !cold[b.Label] {
				continue
			}
			v := verdict{block: b}
			switch {
			case setjmp:
				v.reason = "function calls setjmp"
			case poisoned:
				v.reason = "function contains unresolved indirect jump"
			case hasRaw(b):
				v.reason = "block contains data words"
			case endsInTableJump(b):
				v.reason = "block ends in jump-table dispatch (not unswitched)"
			case hasIndirectUnknownCall(b):
				v.reason = "block contains indirect call with unknown target"
			}
			out = append(out, v)
		}
		return out, nil
	})
	ok := map[string]*cfg.Block{}
	excluded := map[string]string{}
	for _, scan := range scans {
		for _, v := range scan {
			if v.reason == "" {
				ok[v.block.Label] = v.block
			} else {
				excluded[v.block.Label] = v.reason
			}
		}
	}
	return ok, excluded
}

func hasRaw(b *cfg.Block) bool {
	for i := range b.Insts {
		if b.Insts[i].Raw {
			return true
		}
	}
	return false
}

func endsInTableJump(b *cfg.Block) bool {
	if len(b.Insts) == 0 {
		return false
	}
	last := &b.Insts[len(b.Insts)-1]
	return !last.Raw && last.Format == isa.FormatJump && last.JFunc == isa.JmpJMP
}

func hasIndirectUnknownCall(b *cfg.Block) bool {
	for _, c := range b.Calls() {
		if c.Indirect && c.Callee == "" {
			return true
		}
	}
	return false
}

// Partition forms compressible regions from the cold blocks of a profiled
// program.
func Partition(p *cfg.Program, cold map[string]bool, conf Config) (*Result, *Preds, error) {
	if conf.K <= 0 || conf.Gamma <= 0 || conf.Gamma >= 1 {
		return nil, nil, fmt.Errorf("regions: invalid config K=%d gamma=%v", conf.K, conf.Gamma)
	}
	maxWords := conf.K / isa.WordSize
	x, preds := newBlockIndex(p, conf.Workers)
	candidates, excluded := compressible(p, cold, conf.Workers)

	res := &Result{
		InRegion: map[string]int{},
		Excluded: excluded,
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			res.TotalInsts += len(b.Insts)
			if cold[b.Label] {
				res.ColdInsts += len(b.Insts)
			}
		}
	}

	// Initial regions: optionally seed from natural loops (loop-aware
	// strategy), then bounded DFS per function in block layout order.
	assigned := map[string]bool{}
	noRetry := map[string]bool{}
	if conf.Strategy == StrategyLoopAware {
		res.Regions = append(res.Regions,
			seedLoopRegions(p, preds, candidates, assigned, res, maxWords, conf.Gamma)...)
	}
	for i, root := range x.blocks {
		if assigned[root.Label] || noRetry[root.Label] || candidates[root.Label] == nil {
			continue
		}
		tree := x.dfsTree(int32(i), candidates, assigned, maxWords)
		if len(tree) == 0 {
			continue
		}
		r := &Region{ID: len(res.Regions), Blocks: tree}
		for _, b := range tree {
			res.InRegion[b.Label] = r.ID
		}
		if profitable(res, preds, r, conf.Gamma) {
			for _, b := range tree {
				assigned[b.Label] = true
			}
			res.Regions = append(res.Regions, r)
		} else {
			for _, b := range tree {
				delete(res.InRegion, b.Label)
			}
			noRetry[root.Label] = true
		}
	}

	if conf.Pack {
		packRegions(res, x, maxWords)
	}

	// Final bookkeeping: exclusion reasons for cold blocks left out.
	for label := range candidates {
		if _, in := res.InRegion[label]; !in {
			if _, already := res.Excluded[label]; !already {
				res.Excluded[label] = "not profitable to compress"
			}
		}
	}
	for _, r := range res.Regions {
		res.CompressibleInsts += r.NumInsts()
	}
	// Sanity: every region respects the buffer bound.
	for _, r := range res.Regions {
		if w := BufferWords(r, nil); w > maxWords {
			return nil, nil, fmt.Errorf("regions: region %d needs %d words, bound is %d", r.ID, w, maxWords)
		}
	}
	return res, preds, nil
}

// profitable implements the paper's test: a region of I instructions saves
// (1-γ)·I instructions when compressed and costs E instructions of entry
// stubs; compress only when E < (1-γ)·I.
func profitable(res *Result, preds *Preds, r *Region, gamma float64) bool {
	entries := res.Entries(preds, r)
	e := EntryStubWords * len(entries)
	i := r.NumInsts()
	return float64(e) < (1-gamma)*float64(i)
}
