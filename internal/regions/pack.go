package regions

import (
	"container/heap"
	"math"
	"slices"

	"repro/internal/cfg"
)

// restoreStubSavingWords is what merging saves per call between the two
// regions: the restore stub's code words plus its buffer word.
const restoreStubSavingWords = 3

// link is one region's view of a related region (one joined to it by a
// control-flow edge or a call): the savings terms owed to its own blocks.
type link struct {
	other int32 // the related region
	freed int32 // blocks whose outside predecessors all lie in other
	calls int32 // call sites whose callee lies in other
}

// pairScore is a candidate merge of regions x < y with its savings, valid
// while neither region has changed since it was scored.
type pairScore struct {
	savings int
	x, y    int32
	vx, vy  int // region versions the score was computed at
}

// pairQueue orders candidate merges by savings, ties to the lowest (x, y).
type pairQueue []pairScore

func (q pairQueue) Len() int { return len(q) }
func (q pairQueue) Less(i, j int) bool {
	if q[i].savings != q[j].savings {
		return q[i].savings > q[j].savings
	}
	if q[i].x != q[j].x {
		return q[i].x < q[j].x
	}
	return q[i].y < q[j].y
}
func (q pairQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *pairQueue) Push(v any)   { *q = append(*q, v.(pairScore)) }
func (q *pairQueue) Pop() any {
	old := *q
	v := old[len(old)-1]
	*q = old[:len(old)-1]
	return v
}

// packer holds the packing pass's bookkeeping, indexed by region ID (the
// regions arrive numbered 0..n-1). A merged-away region's slots are nil.
type packer struct {
	x        *blockIndex
	maxWords int
	regions  []*Region
	words    []int // BufferWords of each region
	version  []int // bumped each time a region grows
	// links holds each region's related regions, in the order its blocks'
	// edges first reach them. slot is relink's scratch: by region, the
	// index in the list being built of that region's link, or -1.
	links    [][]link
	slot     []int32
	regionOf []int32 // the result's RegionOf, kept current across merges
	queue    pairQueue
}

// packRegions repeatedly merges the pair of regions with the greatest
// savings without exceeding the buffer bound (paper, §4). Savings per merge:
// entry stubs for blocks whose external predecessors all lie in the partner
// region, restore-stub machinery for calls between the regions, a jump for
// fallthrough edges knitted by concatenation, and one function-offset-table
// word for the eliminated region.
//
// For tractability the pass runs in two phases: greedy best-pair merging
// over *related* regions (pairs connected by a control-flow edge, a call, or
// a fallthrough — the only pairs whose savings exceed the one-word table
// saving), followed by first-fit-decreasing packing of the remainder, which
// realizes the table-word savings the paper attributes to packing small
// fragmented regions together.
func packRegions(res *Result, x *blockIndex, maxWords int) {
	pk := newPacker(res, x, maxWords)
	pk.mergeRelated()
	pk.firstFitDecreasing()

	// Renumber compactly in ascending original-ID order.
	var out []*Region
	for _, r := range pk.regions {
		if r == nil {
			continue
		}
		r.ID = len(out)
		for _, i := range r.Members {
			res.RegionOf[i] = int32(r.ID)
		}
		out = append(out, r)
	}
	res.Regions = out
}

// newPacker sets up the packing of res's regions, numbered 0..n-1, into
// buffers of maxWords words.
func newPacker(res *Result, x *blockIndex, maxWords int) *packer {
	n := len(res.Regions)
	pk := &packer{
		x:        x,
		maxWords: maxWords,
		regions:  res.Regions,
		words:    make([]int, n),
		version:  make([]int, n),
		links:    make([][]link, n),
		slot:     make([]int32, n),
		regionOf: res.RegionOf,
	}
	for i := range pk.slot {
		pk.slot[i] = -1
	}
	for id, r := range res.Regions {
		pk.words[id] = x.bufferWords(r.Members)
	}
	return pk
}

// mergeRelated is phase 1: greedy merging of related pairs by savings.
//
// A pair's savings depend only on the two regions' blocks and on which
// region each of their neighbouring blocks belongs to. Merging b into a
// moves only b's blocks, so the scores of pairs that involve neither a nor
// b stay as they were; only a's pairs are scored again.
func (pk *packer) mergeRelated() {
	// Every region's first list goes into one shared array; a list that
	// outgrows its window after a merge moves out of it.
	start := make([]int, len(pk.regions)+1)
	var all []link
	for id := range pk.regions {
		all = pk.appendLinks(all, int32(id))
		start[id+1] = len(all)
	}
	for id := range pk.regions {
		pk.links[id] = all[start[id]:start[id+1]:start[id+1]]
	}
	for id, ls := range pk.links {
		for _, l := range ls {
			if l.other > int32(id) {
				pk.offer(int32(id), l.other)
			}
		}
	}
	for pk.queue.Len() > 0 {
		c := heap.Pop(&pk.queue).(pairScore)
		if pk.regions[c.x] == nil || pk.regions[c.y] == nil ||
			pk.version[c.x] != c.vx || pk.version[c.y] != c.vy {
			continue // stale: a region changed after the pair was scored
		}
		a := c.x
		pk.merge(a, c.y)
		pk.links[a] = pk.appendLinks(pk.links[a][:0], a)
		for _, l := range pk.links[a] {
			pk.links[l.other] = pk.appendLinks(pk.links[l.other][:0], l.other)
		}
		for _, l := range pk.links[a] {
			pk.offer(min(a, l.other), max(a, l.other))
		}
	}
}

// offer queues the merge of x < y when it fits the buffer and saves more
// than the table word.
func (pk *packer) offer(x, y int32) {
	if pk.mergedWords(x, y) > pk.maxWords {
		return
	}
	xy, yx := linkTo(pk.links[x], y), linkTo(pk.links[y], x)
	s := 1 + // one fewer function-offset-table entry
		EntryStubWords*int(xy.freed+yx.freed) +
		restoreStubSavingWords*int(xy.calls+yx.calls)
	if pk.knits(x, y) {
		s++ // the inserted fallthrough branch goes away
	}
	if s > 1 {
		heap.Push(&pk.queue, pairScore{s, x, y, pk.version[x], pk.version[y]})
	}
}

// linkTo returns the link to region other in ls, or the zero link.
func linkTo(ls []link, other int32) link {
	for _, l := range ls {
		if l.other == other {
			return l
		}
	}
	return link{}
}

// appendLinks appends region r's links, recomputed from its blocks' edges,
// to dst. pk.slot finds a related region's link while r's list is built,
// and is cleared again through the list itself.
func (pk *packer) appendLinks(dst []link, r int32) []link {
	lo := len(dst)
	at := func(g int32) *link {
		if pk.slot[g] < 0 {
			pk.slot[g] = int32(len(dst))
			dst = append(dst, link{other: g})
		}
		return &dst[pk.slot[g]]
	}
	for _, i := range pk.regions[r].Members {
		for _, s := range pk.x.Succs(i) {
			if g := pk.regionOf[s]; g != noRegion && g != r {
				at(g) // related, whether or not a term accrues
			}
		}
		for _, c := range pk.x.Callees(i) {
			if c == cfg.NoBlock {
				continue
			}
			if g := pk.regionOf[c]; g != noRegion && g != r {
				at(g).calls++
			}
		}
		// Block i stops being an entry in a merge with region sole when
		// all its outside predecessors (flow predecessors and callers) lie
		// in sole.
		sole, shared := noRegion, pk.x.pinned[i]
		for _, preds := range [2][]int32{pk.x.Preds(i), pk.x.Callers(i)} {
			for _, p := range preds {
				switch g := pk.regionOf[p]; {
				case g == r:
				case g == noRegion:
					shared = true
				default:
					at(g)
					if sole == noRegion {
						sole = g
					} else if sole != g {
						shared = true
					}
				}
			}
		}
		if sole != noRegion && !shared {
			at(sole).freed++
		}
	}
	for _, l := range dst[lo:] {
		pk.slot[l.other] = -1
	}
	return dst
}

// knits reports whether a's last block falls through to b's first.
func (pk *packer) knits(a, b int32) bool {
	ma, mb := pk.regions[a].Members, pk.regions[b].Members
	return pk.x.FallsTo[ma[len(ma)-1]] == mb[0]
}

// mergedWords is BufferWords of a's blocks followed by b's: one leading
// jump fewer, and no branch when a's last block falls through to b's first.
func (pk *packer) mergedWords(a, b int32) int {
	w := pk.words[a] + pk.words[b] - 1
	if pk.knits(a, b) {
		w--
	}
	return w
}

// merge appends b's blocks to a and retires b.
func (pk *packer) merge(a, b int32) {
	pk.words[a] = pk.mergedWords(a, b)
	pk.regions[a].Blocks = append(pk.regions[a].Blocks, pk.regions[b].Blocks...)
	pk.regions[a].Members = append(pk.regions[a].Members, pk.regions[b].Members...)
	for _, i := range pk.regions[b].Members {
		pk.regionOf[i] = a
	}
	pk.regions[b], pk.links[b] = nil, nil
	pk.version[a]++
}

// firstFitDecreasing is phase 2: first-fit-decreasing packing of what
// remains, for the function-offset-table savings. Each region, largest
// first, joins the first bin, in the order the bins opened, that it fits,
// or opens a bin.
//
// Region id fits a bin of w words when w ≤ maxWords − words[id] + 1, or
// with one word more when the bin's last block falls through to id's first
// (mergedWords). A min-tree over the bins' word counts finds the first bin
// under the plain bound in log time. A knitted bin ends in a fallthrough
// predecessor of id's first block, so knitPos finds those through Preds
// and FallsTo: one block at most, in a program laid out as lifted.
func (pk *packer) firstFitDecreasing() {
	ids := pk.liveBySize()
	// binAt holds each bin's region ID by position, binPos each region's
	// bin position (pk.slot, idle after phase 1, holds -1 everywhere).
	binAt := make([]int32, 0, len(ids))
	binPos := pk.slot
	tree := newMinTree()
	for _, id := range ids {
		limit := pk.maxWords - pk.words[id] + 1
		pos := tree.firstAtMost(limit)
		if k := pk.knitPos(id, limit+1, binPos); k >= 0 && (pos < 0 || k < pos) {
			pos = k
		}
		if pos < 0 {
			binPos[id] = int32(len(binAt))
			tree.set(len(binAt), pk.words[id])
			binAt = append(binAt, id)
			continue
		}
		bin := binAt[pos]
		pk.merge(bin, id)
		tree.set(pos, pk.words[bin])
	}
}

// liveBySize lists the live regions by decreasing BufferWords, ties by ID.
func (pk *packer) liveBySize() []int32 {
	n := 0
	for _, r := range pk.regions {
		if r != nil {
			n++
		}
	}
	ids := make([]int32, 0, n)
	for id, r := range pk.regions {
		if r != nil {
			ids = append(ids, int32(id))
		}
	}
	slices.SortFunc(ids, func(a, b int32) int {
		if wa, wb := pk.words[a], pk.words[b]; wa != wb {
			return wb - wa
		}
		return int(a - b)
	})
	return ids
}

// knitPos returns the lowest position, by binPos, of the bins of at most
// limit words whose last block falls through to region id's first block,
// or -1.
func (pk *packer) knitPos(id int32, limit int, binPos []int32) int {
	first := pk.regions[id].Members[0]
	pos := -1
	for _, p := range pk.x.Preds(first) {
		g := pk.regionOf[p]
		if pk.x.FallsTo[p] != first || g == noRegion || binPos[g] < 0 || pk.words[g] > limit {
			continue
		}
		if m := pk.regions[g].Members; m[len(m)-1] == p && (pos < 0 || int(binPos[g]) < pos) {
			pos = int(binPos[g])
		}
	}
	return pos
}

// minTree is a segment tree over bin positions holding each bin's word
// count; positions not yet opened hold math.MaxInt32. It starts small and
// doubles as bins open, since most regions join a bin rather than open one.
type minTree struct {
	leaves int     // a power of two
	node   []int32 // node[1] is the root; node i's children are 2i and 2i+1
}

func newMinTree() *minTree {
	t := &minTree{}
	t.grow(64)
	return t
}

// grow widens the tree to leaves positions, keeping the values it holds.
func (t *minTree) grow(leaves int) {
	node := make([]int32, 2*leaves)
	for i := range node {
		node[i] = math.MaxInt32
	}
	copy(node[leaves:], t.node[t.leaves:])
	t.leaves, t.node = leaves, node
	for i := leaves - 1; i >= 1; i-- {
		node[i] = min(node[2*i], node[2*i+1])
	}
}

// set stores v at position pos.
func (t *minTree) set(pos, v int) {
	if pos >= t.leaves {
		t.grow(2 * t.leaves)
	}
	i := t.leaves + pos
	t.node[i] = int32(v)
	for i > 1 {
		i /= 2
		t.node[i] = min(t.node[2*i], t.node[2*i+1])
	}
}

// firstAtMost returns the lowest position holding at most limit, or -1.
func (t *minTree) firstAtMost(limit int) int {
	if int(t.node[1]) > limit {
		return -1
	}
	i := 1
	for i < t.leaves {
		i *= 2
		if int(t.node[i]) > limit {
			i++
		}
	}
	return i - t.leaves
}
