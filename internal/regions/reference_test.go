package regions

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/parallel"
)

// This file keeps the original, non-incremental region formation as the
// test oracle for Partition: refDfsTree re-measures the whole tree after
// every accepted block, and refPackRegions rebuilds, sorts and re-scores
// every related pair after every merge; refBuildPreds scans every block for
// the predecessor index on its own. Partition must produce a Result and
// Preds identical to refPartition's.

// refPartition is Partition built on refDfsTree and refPackRegions.
func refPartition(p *cfg.Program, cold map[string]bool, conf Config) (*Result, *Preds, error) {
	if conf.K <= 0 || conf.Gamma <= 0 || conf.Gamma >= 1 {
		return nil, nil, fmt.Errorf("regions: invalid config K=%d gamma=%v", conf.K, conf.Gamma)
	}
	maxWords := conf.K / isa.WordSize
	preds := refBuildPreds(p, conf.Workers)
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

	assigned := map[string]bool{}
	noRetry := map[string]bool{}
	if conf.Strategy == StrategyLoopAware {
		res.Regions = append(res.Regions,
			seedLoopRegions(p, preds, candidates, assigned, res, maxWords, conf.Gamma)...)
	}
	for _, f := range p.Funcs {
		for _, root := range f.Blocks {
			if assigned[root.Label] || noRetry[root.Label] || candidates[root.Label] == nil {
				continue
			}
			tree := refDfsTree(f, root, candidates, assigned, maxWords)
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
	}

	if conf.Pack {
		refPackRegions(res, preds, maxWords)
	}

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
	for _, r := range res.Regions {
		if w := BufferWords(r, nil); w > maxWords {
			return nil, nil, fmt.Errorf("regions: region %d needs %d words, bound is %d", r.ID, w, maxWords)
		}
	}
	return res, preds, nil
}

// refDfsTree grows a region from root by depth-first search over successor
// edges, restricted to compressible, unassigned blocks of the same
// function, keeping the exact buffer requirement within maxWords.
func refDfsTree(f *cfg.Func, root *cfg.Block, candidates map[string]*cfg.Block, assigned map[string]bool, maxWords int) []*cfg.Block {
	inFunc := map[string]*cfg.Block{}
	for _, b := range f.Blocks {
		inFunc[b.Label] = b
	}
	var tree []*cfg.Block
	seen := map[string]bool{}
	var visit func(b *cfg.Block)
	visit = func(b *cfg.Block) {
		if seen[b.Label] || assigned[b.Label] || candidates[b.Label] == nil || inFunc[b.Label] == nil {
			return
		}
		// Tentatively accept and check the exact buffer bound.
		seen[b.Label] = true
		tree = append(tree, b)
		if BufferWords(&Region{Blocks: tree}, nil) > maxWords {
			tree = tree[:len(tree)-1]
			delete(seen, b.Label)
			return
		}
		succs, _ := b.Succs()
		for _, s := range succs {
			if nb := inFunc[s]; nb != nil {
				visit(nb)
			}
		}
	}
	visit(root)
	return tree
}

// refPackRegions repeatedly merges the pair of regions with the greatest
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
func refPackRegions(res *Result, preds *Preds, maxWords int) {
	const restoreStubSavingWords = 3 // stub code words plus the buffer word

	live := map[int]*Region{}
	for _, r := range res.Regions {
		live[r.ID] = r
	}

	mergedBufferWords := func(a, b *Region) int {
		return BufferWords(&Region{Blocks: append(append([]*cfg.Block{}, a.Blocks...), b.Blocks...)}, nil)
	}

	savings := func(a, b *Region) int {
		s := 1 // one fewer function-offset-table entry
		merged := &Region{ID: a.ID, Blocks: append(append([]*cfg.Block{}, a.Blocks...), b.Blocks...)}
		memberMerged := func(label string) (int, bool) {
			id, ok := res.InRegion[label]
			if ok && id == b.ID {
				return a.ID, true
			}
			return id, ok
		}
		member := func(label string) (int, bool) {
			id, ok := res.InRegion[label]
			return id, ok
		}
		before := len(EntriesOf(preds, a, member)) + len(EntriesOf(preds, b, member))
		after := len(EntriesOf(preds, merged, memberMerged))
		s += EntryStubWords * (before - after)
		// Calls between the two regions become intra-region.
		for _, pair := range [2][2]*Region{{a, b}, {b, a}} {
			for _, blk := range pair[0].Blocks {
				for _, c := range blk.Calls() {
					if c.Callee == "" {
						continue
					}
					if id, in := res.InRegion[c.Callee]; in && id == pair[1].ID {
						s += restoreStubSavingWords
					}
				}
			}
		}
		// Fallthrough knitting: the last block of a falling through to the
		// first block of b saves the inserted branch.
		if n := len(a.Blocks); n > 0 && len(b.Blocks) > 0 {
			if a.Blocks[n-1].FallsTo == b.Blocks[0].Label {
				s++
			}
		}
		return s
	}

	// relatedPairs: region pairs connected by flow, call, or fallthrough.
	relatedPairs := func() map[[2]int]bool {
		pairs := map[[2]int]bool{}
		addPair := func(x, y int) {
			if x == y {
				return
			}
			if x > y {
				x, y = y, x
			}
			pairs[[2]int{x, y}] = true
		}
		for _, r := range live {
			for _, blk := range r.Blocks {
				succs, _ := blk.Succs()
				for _, s := range succs {
					if id, in := res.InRegion[s]; in {
						addPair(r.ID, id)
					}
				}
				for _, c := range blk.Calls() {
					if c.Callee == "" {
						continue
					}
					if id, in := res.InRegion[c.Callee]; in {
						addPair(r.ID, id)
					}
				}
			}
		}
		return pairs
	}

	// Phase 1: greedy merging of related pairs by savings. Pairs are
	// scored in sorted order so ties resolve deterministically.
	for {
		bestS, bestA, bestB := 1, -1, -1 // require savings beyond the table word
		pairSet := relatedPairs()
		pairs := make([][2]int, 0, len(pairSet))
		for pr := range pairSet {
			pairs = append(pairs, pr)
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i][0] != pairs[j][0] {
				return pairs[i][0] < pairs[j][0]
			}
			return pairs[i][1] < pairs[j][1]
		})
		for _, pr := range pairs {
			a, b := live[pr[0]], live[pr[1]]
			if a == nil || b == nil {
				continue
			}
			if mergedBufferWords(a, b) > maxWords {
				continue
			}
			if s := savings(a, b); s > bestS {
				bestS, bestA, bestB = s, pr[0], pr[1]
			}
		}
		if bestA < 0 {
			break
		}
		a, b := live[bestA], live[bestB]
		a.Blocks = append(a.Blocks, b.Blocks...)
		for _, blk := range b.Blocks {
			res.InRegion[blk.Label] = a.ID
		}
		delete(live, bestB)
	}

	// Phase 2: first-fit-decreasing packing of what remains, for the
	// function-offset-table savings.
	ids := make([]int, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		wi := BufferWords(live[ids[i]], nil)
		wj := BufferWords(live[ids[j]], nil)
		if wi != wj {
			return wi > wj
		}
		return ids[i] < ids[j]
	})
	var bins []*Region
	for _, id := range ids {
		r := live[id]
		placed := false
		for _, bin := range bins {
			if mergedBufferWords(bin, r) <= maxWords {
				bin.Blocks = append(bin.Blocks, r.Blocks...)
				for _, blk := range r.Blocks {
					res.InRegion[blk.Label] = bin.ID
				}
				delete(live, id)
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, r)
		}
	}

	// Renumber compactly in ascending original-ID order.
	finalIDs := make([]int, 0, len(live))
	for id := range live {
		finalIDs = append(finalIDs, id)
	}
	sort.Ints(finalIDs)
	var out []*Region
	remap := map[int]int{}
	for newID, oldID := range finalIDs {
		r := live[oldID]
		remap[oldID] = newID
		r.ID = newID
		out = append(out, r)
	}
	for l, id := range res.InRegion {
		res.InRegion[l] = remap[id]
	}
	res.Regions = out
}

// refPredEdges is one function's contribution to the predecessor graph.
type refPredEdges struct {
	flow, call [][2]string // (to, from) pairs
	addrTaken  []string
}

// refBuildPreds indexes the program's predecessors with the per-function
// edge scan fanned out over the given worker count.
func refBuildPreds(p *cfg.Program, workers int) *Preds {
	pr := &Preds{
		FlowPreds:    map[string]map[string]bool{},
		CallPreds:    map[string]map[string]bool{},
		AddressTaken: map[string]bool{},
		ProgramEntry: p.Entry,
	}
	add := func(m map[string]map[string]bool, to, from string) {
		if m[to] == nil {
			m[to] = map[string]bool{}
		}
		m[to][from] = true
	}
	labels := map[string]bool{}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			labels[b.Label] = true
		}
	}
	scans, _ := parallel.Map(len(p.Funcs), workers, func(fi int) (refPredEdges, error) {
		var e refPredEdges
		for _, b := range p.Funcs[fi].Blocks {
			succs, _ := b.Succs()
			for _, s := range succs {
				e.flow = append(e.flow, [2]string{s, b.Label})
			}
			for _, c := range b.Calls() {
				if c.Callee != "" && labels[c.Callee] {
					e.call = append(e.call, [2]string{c.Callee, b.Label})
				}
			}
			for i := range b.Insts {
				in := &b.Insts[i]
				// A la of a code label takes its address (indirect call or
				// computed branch target).
				if in.Kind == cfg.TargetLo16 && labels[in.Target] {
					e.addrTaken = append(e.addrTaken, in.Target)
				}
			}
		}
		return e, nil
	})
	for _, e := range scans {
		for _, fl := range e.flow {
			add(pr.FlowPreds, fl[0], fl[1])
		}
		for _, c := range e.call {
			add(pr.CallPreds, c[0], c[1])
		}
		for _, l := range e.addrTaken {
			pr.AddressTaken[l] = true
		}
	}
	for _, r := range p.DataRelocs {
		if labels[r.Sym] {
			pr.AddressTaken[r.Sym] = true
		}
	}
	return pr
}
