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
	// Members holds the block numbers of Blocks, in the same order.
	Members []int32
}

// NumInsts reports the region's size in instructions.
func (r *Region) NumInsts() int {
	n := 0
	for _, b := range r.Blocks {
		n += len(b.Insts)
	}
	return n
}

// Exclusion says why a cold block stays uncompressed.
type Exclusion uint8

// The exclusion reasons: §2.2 setjmp, §4 unknown control flow, §6.2
// unresolved jump tables, and the §4 profitability test.
const (
	NotExcluded Exclusion = iota // hot, or compressed
	ExclSetjmp
	ExclUnresolvedJump
	ExclDataWords
	ExclTableJump
	ExclUnknownCall
	ExclUnprofitable
)

var exclusionText = [...]string{
	NotExcluded:        "",
	ExclSetjmp:         "function calls setjmp",
	ExclUnresolvedJump: "function contains unresolved indirect jump",
	ExclDataWords:      "block contains data words",
	ExclTableJump:      "block ends in jump-table dispatch (not unswitched)",
	ExclUnknownCall:    "block contains indirect call with unknown target",
	ExclUnprofitable:   "not profitable to compress",
}

func (e Exclusion) String() string { return exclusionText[e] }

// Result is the outcome of partitioning. Its per-block fields are indexed
// by the block numbers of the cfg.Index it was computed over.
type Result struct {
	Regions []*Region
	// RegionOf holds the ID of each block's region, or -1 when the block
	// stays uncompressed.
	RegionOf []int32
	// Excluded holds why each cold block left out of every region stays
	// uncompressed; it is NotExcluded for every other block.
	Excluded []Exclusion
	// ColdInsts and CompressibleInsts support the Figure 4 reproduction.
	ColdInsts         int
	CompressibleInsts int
	TotalInsts        int
}

// Entries reports the block numbers, in layout order, of region r's entry
// blocks: blocks reachable from outside the region (branch/fallthrough
// predecessors outside r, callers outside r, address-taken blocks, or the
// program entry). These each require an entry stub.
func (res *Result) Entries(x *cfg.Index, r *Region) []int32 {
	var out []int32
	for _, i := range r.Members {
		if res.isEntry(x, i, int32(r.ID)) {
			out = append(out, i)
		}
	}
	return out
}

// isEntry reports whether block i of region id is one of its entries.
func (res *Result) isEntry(x *cfg.Index, i, id int32) bool {
	if x.AddrTaken[i] || i == x.Entry {
		return true
	}
	for _, p := range x.Preds(i) {
		if res.RegionOf[p] != id {
			return true
		}
	}
	for _, c := range x.Callers(i) {
		if res.RegionOf[c] != id {
			return true
		}
	}
	return false
}

// BufferWords reports the exact number of runtime-buffer words region r
// occupies when decompressed: the leading dispatch jump, the instructions
// themselves, one branch per fallthrough edge broken by the layout or
// leaving the region, and one extra word per call expanded into the
// CreateStub sequence (c_i in the paper's cost model). safeCallee reports
// callees, by block number, proven buffer-safe (§6.1), whose calls are not
// expanded; pass nil for the conservative bound.
func BufferWords(x *cfg.Index, r *Region, safeCallee func(int32) bool) int {
	words := 1 // leading jump to the entry offset
	for k, i := range r.Members {
		words += len(x.Blocks[i].Insts)
		next := cfg.NoBlock
		if k+1 < len(r.Members) {
			next = r.Members[k+1]
		}
		if f := x.FallsTo[i]; f != cfg.NoBlock && f != next {
			words++ // explicit branch inserted by the region layout
		}
		// Every call from the buffer to a non-buffer-safe callee expands
		// into the CreateStub pair — including calls to targets in the
		// same region, whose bodies may still branch to other regions.
		for _, c := range x.Callees(i) {
			if safeCallee != nil && c >= 0 && safeCallee(c) {
				continue
			}
			words++
		}
	}
	return words
}

// compressible classifies which cold blocks may be compressed at all: it
// returns the candidates and the exclusion reasons for the rest (paper:
// §2.2 setjmp, §4 unknown control flow, §6.2 unresolved jump tables). The
// scan fans out per function; each function fills only its own blocks'
// slots.
func compressible(x *cfg.Index, cold []bool, workers int) ([]bool, []Exclusion) {
	cand := make([]bool, len(x.Blocks))
	why := make([]Exclusion, len(x.Blocks))
	_ = parallel.ForEach(len(x.Prog.Funcs), workers, func(fi int) error {
		lo, hi := x.FuncStart[fi], x.FuncStart[fi+1]
		setjmp := x.Prog.Funcs[fi].CallsSetjmp()
		// An unresolved indirect jump poisons the whole function: any block
		// could be its target.
		poisoned := false
		for i := lo; i < hi; i++ {
			poisoned = poisoned || x.Unresolved[i]
		}
		for i := lo; i < hi; i++ {
			if !cold[i] {
				continue
			}
			b := x.Blocks[i]
			switch {
			case setjmp:
				why[i] = ExclSetjmp
			case poisoned:
				why[i] = ExclUnresolvedJump
			case hasRaw(b):
				why[i] = ExclDataWords
			case endsInTableJump(b):
				why[i] = ExclTableJump
			case hasIndirectUnknownCall(x.Calls(i)):
				why[i] = ExclUnknownCall
			default:
				cand[i] = true
			}
		}
		return nil
	})
	return cand, why
}

func hasRaw(b *cfg.Block) bool {
	for _, in := range b.Insts {
		if in.Raw() {
			return true
		}
	}
	return false
}

func endsInTableJump(b *cfg.Block) bool {
	if len(b.Insts) == 0 {
		return false
	}
	last := b.Insts[len(b.Insts)-1]
	return !last.Raw() && last.Format() == isa.FormatJump && last.JFunc() == isa.JmpJMP
}

func hasIndirectUnknownCall(calls []cfg.CallSite) bool {
	for _, c := range calls {
		if c.Indirect && c.Callee == "" {
			return true
		}
	}
	return false
}

// Partition numbers p's blocks and forms compressible regions from its
// cold blocks, given by label. It returns the result and the block index
// the result's block numbers refer to.
func Partition(p *cfg.Program, cold map[string]bool, conf Config) (*Result, *cfg.Index, error) {
	x, err := cfg.NewIndex(p, conf.Workers)
	if err != nil {
		return nil, nil, fmt.Errorf("regions: %w", err)
	}
	bits := make([]bool, len(x.Blocks))
	for i, b := range x.Blocks {
		bits[i] = cold[b.Label]
	}
	res, err := PartitionIndex(x, bits, conf)
	if err != nil {
		return nil, nil, err
	}
	return res, x, nil
}

// PartitionIndex forms compressible regions from the cold blocks of a
// numbered, profiled program; cold holds the cold bit of each block number.
func PartitionIndex(x *cfg.Index, cold []bool, conf Config) (*Result, error) {
	if conf.K <= 0 || conf.Gamma <= 0 || conf.Gamma >= 1 {
		return nil, fmt.Errorf("regions: invalid config K=%d gamma=%v", conf.K, conf.Gamma)
	}
	maxWords := conf.K / isa.WordSize
	bx := newBlockIndex(x)
	cand, excluded := compressible(x, cold, conf.Workers)

	n := len(x.Blocks)
	res := &Result{RegionOf: make([]int32, n), Excluded: excluded}
	for i, b := range x.Blocks {
		res.RegionOf[i] = noRegion
		res.TotalInsts += len(b.Insts)
		if cold[i] {
			res.ColdInsts += len(b.Insts)
		}
	}

	// Initial regions: optionally seed from natural loops (loop-aware
	// strategy), then bounded DFS per function in block layout order.
	assigned := make([]bool, n)
	if conf.Strategy == StrategyLoopAware {
		res.Regions = append(res.Regions,
			bx.seedLoopRegions(cand, assigned, res, maxWords, conf.Gamma)...)
	}
	// The regions' member and block lists are carved from two arenas sized
	// for every candidate; a merge that appends to a list moves it out.
	nCand := 0
	for _, ok := range cand {
		if ok {
			nCand++
		}
	}
	memberArena := make([]int32, 0, nCand)
	blockArena := make([]*cfg.Block, 0, nCand)
	var tree []int32
	for root := int32(0); root < int32(n); root++ {
		if assigned[root] || !cand[root] {
			continue
		}
		tree = bx.dfsTree(root, cand, assigned, maxWords, tree[:0])
		if len(tree) == 0 {
			continue
		}
		id := int32(len(res.Regions))
		for _, i := range tree {
			res.RegionOf[i] = id
		}
		if !res.profitable(x, tree, id, conf.Gamma) {
			for _, i := range tree {
				res.RegionOf[i] = noRegion
			}
			continue
		}
		m0 := len(memberArena)
		for _, i := range tree {
			assigned[i] = true
			memberArena = append(memberArena, i)
			blockArena = append(blockArena, x.Blocks[i])
		}
		res.Regions = append(res.Regions, &Region{
			ID:      int(id),
			Members: memberArena[m0:len(memberArena):len(memberArena)],
			Blocks:  blockArena[m0:len(blockArena):len(blockArena)],
		})
	}

	if conf.Pack {
		packRegions(res, bx, maxWords)
	}

	// Final bookkeeping: exclusion reasons for candidates left out.
	for i, ok := range cand {
		if ok && res.RegionOf[i] == noRegion {
			res.Excluded[i] = ExclUnprofitable
		}
	}
	for _, r := range res.Regions {
		res.CompressibleInsts += r.NumInsts()
	}
	// Sanity: every region respects the buffer bound.
	for _, r := range res.Regions {
		if w := bx.bufferWords(r.Members); w > maxWords {
			return nil, fmt.Errorf("regions: region %d needs %d words, bound is %d", r.ID, w, maxWords)
		}
	}
	return res, nil
}

// profitable implements the paper's test: a region of I instructions saves
// (1-γ)·I instructions when compressed and costs E instructions of entry
// stubs; compress only when E < (1-γ)·I. The region's blocks, members, must
// already be recorded in RegionOf under id.
func (res *Result) profitable(x *cfg.Index, members []int32, id int32, gamma float64) bool {
	entries, insts := 0, 0
	for _, i := range members {
		if res.isEntry(x, i, id) {
			entries++
		}
		insts += len(x.Blocks[i].Insts)
	}
	return float64(EntryStubWords*entries) < (1-gamma)*float64(insts)
}
