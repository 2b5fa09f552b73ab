package regions

import (
	"container/heap"
	"sort"
)

// restoreStubSavingWords is what merging saves per call between the two
// regions: the restore stub's code words plus its buffer word.
const restoreStubSavingWords = 3

// link is one region's view of a related region (one joined to it by a
// control-flow edge or a call): the savings terms owed to its own blocks.
type link struct {
	freed int // blocks whose outside predecessors all lie in the other region
	calls int // call sites whose callee lies in the other region
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
	members  [][]int32 // block indices of each region, in layout order
	words    []int     // BufferWords of each region
	version  []int     // bumped each time a region grows
	links    []map[int32]link
	regionOf []int32 // region of each block, or noBlock
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
	n := len(res.Regions)
	pk := &packer{
		x:        x,
		maxWords: maxWords,
		regions:  res.Regions,
		members:  make([][]int32, n),
		words:    make([]int, n),
		version:  make([]int, n),
		links:    make([]map[int32]link, n),
		regionOf: make([]int32, len(x.blocks)),
	}
	for i := range pk.regionOf {
		pk.regionOf[i] = noBlock
	}
	for id, r := range res.Regions {
		for _, b := range r.Blocks {
			i := x.of[b.Label]
			pk.members[id] = append(pk.members[id], i)
			pk.regionOf[i] = int32(id)
		}
		pk.words[id] = x.bufferWords(pk.members[id])
	}
	pk.mergeRelated()
	pk.firstFitDecreasing()

	// Renumber compactly in ascending original-ID order.
	var out []*Region
	for _, r := range pk.regions {
		if r == nil {
			continue
		}
		r.ID = len(out)
		for _, b := range r.Blocks {
			res.InRegion[b.Label] = r.ID
		}
		out = append(out, r)
	}
	res.Regions = out
}

// mergeRelated is phase 1: greedy merging of related pairs by savings.
//
// A pair's savings depend only on the two regions' blocks and on which
// region each of their neighbouring blocks belongs to. Merging b into a
// moves only b's blocks, so the scores of pairs that involve neither a nor
// b stay as they were; only a's pairs are scored again.
func (pk *packer) mergeRelated() {
	for id := range pk.regions {
		pk.relink(int32(id))
	}
	for id, ls := range pk.links {
		for other := range ls {
			if other > int32(id) {
				pk.offer(int32(id), other)
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
		pk.relink(a)
		for other := range pk.links[a] {
			pk.relink(other)
		}
		for other := range pk.links[a] {
			pk.offer(min(a, other), max(a, other))
		}
	}
}

// offer queues the merge of x < y when it fits the buffer and saves more
// than the table word.
func (pk *packer) offer(x, y int32) {
	if pk.mergedWords(x, y) > pk.maxWords {
		return
	}
	xy, yx := pk.links[x][y], pk.links[y][x]
	s := 1 + // one fewer function-offset-table entry
		EntryStubWords*(xy.freed+yx.freed) +
		restoreStubSavingWords*(xy.calls+yx.calls)
	if pk.knits(x, y) {
		s++ // the inserted fallthrough branch goes away
	}
	if s > 1 {
		heap.Push(&pk.queue, pairScore{s, x, y, pk.version[x], pk.version[y]})
	}
}

// relink recomputes region r's links from its blocks' edges.
func (pk *packer) relink(r int32) {
	m := pk.links[r]
	if m == nil {
		m = map[int32]link{}
		pk.links[r] = m
	}
	clear(m)
	for _, i := range pk.members[r] {
		in := &pk.x.info[i]
		for _, s := range in.succs {
			if g := pk.regionOf[s]; g != noBlock && g != r {
				m[g] = m[g] // related, whether or not a term accrues
			}
		}
		for _, c := range in.callees {
			if g := pk.regionOf[c]; g != noBlock && g != r {
				l := m[g]
				l.calls++
				m[g] = l
			}
		}
		// Block i stops being an entry in a merge with region sole when
		// all its outside predecessors lie in sole.
		sole, shared := noBlock, in.pinned
		for _, p := range in.preds {
			switch g := pk.regionOf[p]; {
			case g == r:
			case g == noBlock:
				shared = true
			default:
				m[g] = m[g]
				if sole == noBlock {
					sole = g
				} else if sole != g {
					shared = true
				}
			}
		}
		if sole != noBlock && !shared {
			l := m[sole]
			l.freed++
			m[sole] = l
		}
	}
}

// knits reports whether a's last block falls through to b's first.
func (pk *packer) knits(a, b int32) bool {
	ma, mb := pk.members[a], pk.members[b]
	return pk.x.info[ma[len(ma)-1]].fallsTo == mb[0]
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
	pk.members[a] = append(pk.members[a], pk.members[b]...)
	for _, i := range pk.members[b] {
		pk.regionOf[i] = a
	}
	pk.regions[b], pk.members[b], pk.links[b] = nil, nil, nil
	pk.version[a]++
}

// firstFitDecreasing is phase 2: first-fit-decreasing packing of what
// remains, for the function-offset-table savings.
func (pk *packer) firstFitDecreasing() {
	var ids []int32
	for id, r := range pk.regions {
		if r != nil {
			ids = append(ids, int32(id))
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		wi, wj := pk.words[ids[i]], pk.words[ids[j]]
		if wi != wj {
			return wi > wj
		}
		return ids[i] < ids[j]
	})
	var bins []int32
	for _, id := range ids {
		placed := false
		for _, bin := range bins {
			if pk.mergedWords(bin, id) <= pk.maxWords {
				pk.merge(bin, id)
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, id)
		}
	}
}
