package regions

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/cfg"
)

// Strategy selects the region-construction algorithm. The paper's
// conclusion (§9) names "other algorithms for constructing compressible
// regions" as future work; StrategyLoopAware is one such algorithm,
// motivated by the §7 pathology: the DFS partitioner may split a loop
// across regions, so a timing input that drives the loop pays one
// decompression per iteration. The loop-aware strategy seeds regions from
// natural loops first, keeping each loop that fits the buffer inside a
// single region.
type Strategy int

const (
	// StrategyDFS is the paper's bounded depth-first search (§4).
	StrategyDFS Strategy = iota
	// StrategyLoopAware groups whole natural loops first, then falls back
	// to the DFS for the remaining cold blocks.
	StrategyLoopAware
)

// naturalLoop returns the blocks of the natural loop of back edge
// latch→header, sorted by label: the header plus every block of its
// function that reaches the latch without passing through the header
// (computed by reverse reachability).
func (bx *blockIndex) naturalLoop(latch, header int32) []int32 {
	bx.stamp++
	fn := bx.Fn[header]
	bx.seen[header] = bx.stamp
	loop := []int32{header}
	var stack []int32
	if bx.seen[latch] != bx.stamp {
		bx.seen[latch] = bx.stamp
		loop = append(loop, latch)
		stack = append(stack, latch)
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range bx.Preds(b) {
			if bx.Fn[p] != fn || bx.seen[p] == bx.stamp {
				continue
			}
			bx.seen[p] = bx.stamp
			loop = append(loop, p)
			stack = append(stack, p)
		}
	}
	slices.SortFunc(loop, func(a, b int32) int {
		return strings.Compare(bx.Blocks[a].Label, bx.Blocks[b].Label)
	})
	return loop
}

// seedLoopRegions forms one region per compressible natural loop that fits
// the buffer, before the generic DFS runs. Loops are processed smallest
// first so inner loops get their own regions when an outer loop is too big.
// It returns the regions created and marks their blocks assigned.
func (bx *blockIndex) seedLoopRegions(cand, assigned []bool, res *Result, maxWords int, gamma float64) []*Region {
	type loopInfo struct {
		blocks []int32
		insts  int
	}
	var loops []loopInfo
	for _, e := range bx.BackEdges() {
		blocks := bx.naturalLoop(e.From, e.To)
		ok := true
		insts := 0
		for _, i := range blocks {
			if !cand[i] || assigned[i] {
				ok = false
				break
			}
			insts += len(bx.Blocks[i].Insts)
		}
		if ok {
			loops = append(loops, loopInfo{blocks, insts})
		}
	}
	sort.Slice(loops, func(i, j int) bool {
		if loops[i].insts != loops[j].insts {
			return loops[i].insts < loops[j].insts
		}
		return bx.Blocks[loops[i].blocks[0]].Label < bx.Blocks[loops[j].blocks[0]].Label
	})

	var out []*Region
	for _, li := range loops {
		// Skip loops whose blocks were claimed by a smaller loop region.
		ok := true
		for _, i := range li.blocks {
			if assigned[i] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if bx.bufferWords(li.blocks) > maxWords {
			continue // too big even alone; the DFS will carve it up
		}
		id := int32(len(res.Regions) + len(out))
		for _, i := range li.blocks {
			res.RegionOf[i] = id
		}
		if !res.profitable(bx.Index, li.blocks, id, gamma) {
			for _, i := range li.blocks {
				res.RegionOf[i] = noRegion
			}
			continue
		}
		r := &Region{ID: int(id), Members: li.blocks, Blocks: make([]*cfg.Block, len(li.blocks))}
		for k, i := range li.blocks {
			assigned[i] = true
			r.Blocks[k] = bx.Blocks[i]
		}
		out = append(out, r)
	}
	return out
}
