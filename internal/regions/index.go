package regions

import (
	"repro/internal/cfg"
	"repro/internal/parallel"
)

// Block indices stand for labels in the region passes. Two values name no
// block: noBlock (no fallthrough, no region) and otherLabel (a fallthrough
// to a label that is not a block, which never matches a layout successor).
const (
	noBlock    int32 = -1
	otherLabel int32 = -2
)

// blockInfo is what region formation asks of one block, computed once per
// Partition so the DFS and packing loops index slices instead of walking
// instructions and hashing labels again.
type blockInfo struct {
	fn int32 // index of the owning function in Program.Funcs
	// words is the block's share of BufferWords apart from its fallthrough
	// branch: its instructions plus one word per call site.
	words   int
	fallsTo int32 // FallsTo as an index, or noBlock/otherLabel
	// pinned blocks are address-taken or the program entry, so they are
	// entries whatever region they share.
	pinned  bool
	succs   []int32 // Succs that are blocks
	callees []int32 // one per call site whose callee is a block
	preds   []int32 // flow and call predecessors, repeats allowed
}

// blockIndex numbers the program's blocks in function and layout order.
type blockIndex struct {
	blocks []*cfg.Block
	info   []blockInfo
	of     map[string]int32

	// seen marks the blocks the current dfsTree call has accepted: it
	// holds that call's stamp, so no per-call set is allocated.
	seen  []int32
	stamp int32
}

// newBlockIndex scans each function's blocks once, fanned out over the
// given worker count (<= 0 means one per CPU), and derives both the block
// index and the program's predecessor index from that scan. Each function
// fills only its own blocks' slots, and the edge sets are merged in block
// order afterwards, so the result is identical at any worker count.
func newBlockIndex(p *cfg.Program, workers int) (*blockIndex, *Preds) {
	x := &blockIndex{of: map[string]int32{}}
	first := make([]int, len(p.Funcs))
	for fi, f := range p.Funcs {
		first[fi] = len(x.blocks)
		for _, b := range f.Blocks {
			x.of[b.Label] = int32(len(x.blocks))
			x.blocks = append(x.blocks, b)
		}
	}
	x.info = make([]blockInfo, len(x.blocks))
	x.seen = make([]int32, len(x.blocks))
	taken := make([][]int32, len(p.Funcs)) // code labels each function's la takes
	_ = parallel.ForEach(len(p.Funcs), workers, func(fi int) error {
		for j, b := range p.Funcs[fi].Blocks {
			in := &x.info[first[fi]+j]
			in.fn = int32(fi)
			calls := b.Calls()
			in.words = len(b.Insts) + len(calls)
			for _, c := range calls {
				if ci, ok := x.of[c.Callee]; ok {
					in.callees = append(in.callees, ci)
				}
			}
			succs, _ := b.Succs()
			for _, s := range succs {
				if si, ok := x.of[s]; ok {
					in.succs = append(in.succs, si)
				}
			}
			in.fallsTo = noBlock
			if b.FallsTo != "" {
				in.fallsTo = otherLabel
				if ti, ok := x.of[b.FallsTo]; ok {
					in.fallsTo = ti
				}
			}
			for k := range b.Insts {
				// A la of a code label takes its address (indirect call or
				// computed branch target).
				if in := &b.Insts[k]; in.Kind == cfg.TargetLo16 {
					if ti, ok := x.of[in.Target]; ok {
						taken[fi] = append(taken[fi], ti)
					}
				}
			}
		}
		return nil
	})

	preds := &Preds{
		FlowPreds:    map[string]map[string]bool{},
		CallPreds:    map[string]map[string]bool{},
		AddressTaken: map[string]bool{},
		ProgramEntry: p.Entry,
	}
	add := func(m map[string]map[string]bool, to, from int32) {
		x.info[to].preds = append(x.info[to].preds, from)
		set := m[x.blocks[to].Label]
		if set == nil {
			set = map[string]bool{}
			m[x.blocks[to].Label] = set
		}
		set[x.blocks[from].Label] = true
	}
	for i := range x.info {
		for _, s := range x.info[i].succs {
			add(preds.FlowPreds, s, int32(i))
		}
		for _, c := range x.info[i].callees {
			add(preds.CallPreds, c, int32(i))
		}
	}
	for _, t := range taken {
		for _, i := range t {
			preds.AddressTaken[x.blocks[i].Label] = true
		}
	}
	for _, r := range p.DataRelocs {
		if _, ok := x.of[r.Sym]; ok {
			preds.AddressTaken[r.Sym] = true
		}
	}
	for i, b := range x.blocks {
		x.info[i].pinned = preds.AddressTaken[b.Label] || preds.ProgramEntry == b.Label
	}
	return x, preds
}

// branch reports the fallthrough branch block i needs in a layout where
// next (a block index or noBlock) follows it: 1 when i falls through to
// anything but next, else 0.
func (x *blockIndex) branch(i, next int32) int {
	if f := x.info[i].fallsTo; f != noBlock && f != next {
		return 1
	}
	return 0
}

// bufferWords is BufferWords(r, nil) for the region r whose blocks, in
// layout order, are members.
func (x *blockIndex) bufferWords(members []int32) int {
	w := 1 // leading jump to the entry offset
	for k, i := range members {
		next := noBlock
		if k+1 < len(members) {
			next = members[k+1]
		}
		w += x.info[i].words + x.branch(i, next)
	}
	return w
}

// dfsTree grows a region from root by depth-first search over successor
// edges, restricted to compressible, unassigned blocks of the same
// function, keeping the exact buffer requirement within maxWords. The
// requirement is a running count: appending block b adds b's words and its
// fallthrough branch, and takes back the previous last block's branch when
// that block falls through to b.
func (x *blockIndex) dfsTree(root int32, candidates map[string]*cfg.Block, assigned map[string]bool, maxWords int) []*cfg.Block {
	x.stamp++
	fn := x.info[root].fn
	var tree []*cfg.Block
	last, words := noBlock, 1 // the leading dispatch jump
	var visit func(i int32)
	visit = func(i int32) {
		in := &x.info[i]
		b := x.blocks[i]
		if x.seen[i] == x.stamp || in.fn != fn || assigned[b.Label] || candidates[b.Label] == nil {
			return
		}
		w := words + in.words + x.branch(i, noBlock)
		if last != noBlock {
			w += x.branch(last, i) - x.branch(last, noBlock)
		}
		if w > maxWords {
			return
		}
		x.seen[i] = x.stamp
		tree = append(tree, b)
		last, words = i, w
		for _, s := range in.succs {
			visit(s)
		}
	}
	visit(root)
	return tree
}
