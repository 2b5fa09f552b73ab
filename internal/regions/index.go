package regions

import (
	"repro/internal/cfg"
)

// noRegion is the RegionOf entry of a block in no region.
const noRegion int32 = -1

// blockIndex is the program's cfg.Index plus what region formation asks of
// each block, computed once per Partition so the DFS and packing loops
// index slices instead of walking instructions again.
type blockIndex struct {
	*cfg.Index
	// words is each block's share of BufferWords apart from its
	// fallthrough branch: its instructions plus one word per call site.
	words []int
	// pinned blocks are address-taken or the program entry, so they are
	// entries whatever region they share.
	pinned []bool

	// seen marks the blocks the current dfsTree or naturalLoop call has
	// accepted: it holds that call's stamp, so no per-call set is
	// allocated.
	seen  []int32
	stamp int32
}

func newBlockIndex(x *cfg.Index) *blockIndex {
	n := len(x.Blocks)
	bx := &blockIndex{
		Index:  x,
		words:  make([]int, n),
		pinned: make([]bool, n),
		seen:   make([]int32, n),
	}
	for i, b := range x.Blocks {
		bx.words[i] = len(b.Insts) + len(x.Calls(int32(i)))
		bx.pinned[i] = x.AddrTaken[i] || int32(i) == x.Entry
	}
	return bx
}

// branch reports the fallthrough branch block i needs in a layout where
// next (a block number or cfg.NoBlock) follows it: 1 when i falls through
// to anything but next, else 0.
func (bx *blockIndex) branch(i, next int32) int {
	if f := bx.FallsTo[i]; f != cfg.NoBlock && f != next {
		return 1
	}
	return 0
}

// bufferWords is BufferWords(x, r, nil) for the region r whose blocks, in
// layout order, are members.
func (bx *blockIndex) bufferWords(members []int32) int {
	w := 1 // leading jump to the entry offset
	for k, i := range members {
		next := cfg.NoBlock
		if k+1 < len(members) {
			next = members[k+1]
		}
		w += bx.words[i] + bx.branch(i, next)
	}
	return w
}

// dfsTree grows a region from root by depth-first search over successor
// edges, restricted to compressible, unassigned blocks of the same
// function, keeping the exact buffer requirement within maxWords. It
// appends the region's block numbers, in visit order, to tree. The
// requirement is a running count: appending block b adds b's words and its
// fallthrough branch, and takes back the previous last block's branch when
// that block falls through to b.
func (bx *blockIndex) dfsTree(root int32, cand, assigned []bool, maxWords int, tree []int32) []int32 {
	bx.stamp++
	fn := bx.Fn[root]
	last, words := cfg.NoBlock, 1 // the leading dispatch jump
	var visit func(i int32)
	visit = func(i int32) {
		if bx.seen[i] == bx.stamp || bx.Fn[i] != fn || assigned[i] || !cand[i] {
			return
		}
		w := words + bx.words[i] + bx.branch(i, cfg.NoBlock)
		if last != cfg.NoBlock {
			w += bx.branch(last, i) - bx.branch(last, cfg.NoBlock)
		}
		if w > maxWords {
			return
		}
		bx.seen[i] = bx.stamp
		tree = append(tree, i)
		last, words = i, w
		for _, s := range bx.Succs(i) {
			visit(s)
		}
	}
	visit(root)
	return tree
}
