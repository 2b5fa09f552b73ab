package regions

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/parallel"
)

// This file keeps the original, label-keyed, non-incremental region
// formation as the test oracle for Partition: refPreds indexes
// predecessors in nested label maps, refDfsTree re-measures the whole tree
// after every accepted block, and refPackRegions rebuilds, sorts and
// re-scores every related pair after every merge; membership and exclusion
// live in maps keyed by label. Partition must produce the same regions,
// memberships, exclusions, counts and entry sets as refPartition.

// refResult is the label-keyed outcome of refPartition.
type refResult struct {
	Regions []*Region
	// InRegion maps block label to region ID, or absent if uncompressed.
	InRegion map[string]int
	// Excluded maps cold-but-uncompressible block labels to the reason.
	Excluded          map[string]string
	ColdInsts         int
	CompressibleInsts int
	TotalInsts        int
}

// refPreds is the program-wide label-keyed predecessor index.
type refPreds struct {
	// FlowPreds[b] = blocks with a branch or fallthrough edge to b.
	FlowPreds map[string]map[string]bool
	// CallPreds[entry] = blocks containing a call to the block entry.
	CallPreds map[string]map[string]bool
	// AddressTaken marks labels whose address escapes into data or into a
	// register (la): control may arrive from anywhere.
	AddressTaken map[string]bool
	ProgramEntry string
}

// refEntries reports the labels of region r's entry blocks.
func (res *refResult) refEntries(p *refPreds, r *Region) []string {
	memberOf := func(label string) (int, bool) {
		id, ok := res.InRegion[label]
		return id, ok
	}
	return refEntriesOf(p, r, memberOf)
}

// refEntriesOf is refEntries with an explicit membership function, so the
// packing pass can evaluate hypothetical merges without mutating the result.
func refEntriesOf(p *refPreds, r *Region, memberOf func(string) (int, bool)) []string {
	var out []string
	for _, b := range r.Blocks {
		if refIsEntry(p, r, b, memberOf) {
			out = append(out, b.Label)
		}
	}
	return out
}

func refIsEntry(p *refPreds, r *Region, b *cfg.Block, memberOf func(string) (int, bool)) bool {
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

// refBufferWords is BufferWords over labels: safeCallee reports callee
// labels proven buffer-safe; nil gives the conservative bound.
func refBufferWords(p *cfg.Program, r *Region, safeCallee func(string) bool) int {
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
		for _, c := range p.Calls(b) {
			if safeCallee != nil && c.Callee != "" && safeCallee(c.Callee) {
				continue
			}
			words++
		}
	}
	return words
}

// refCompressible classifies which cold blocks may be compressed at all,
// and records exclusion reasons for the rest.
func refCompressible(p *cfg.Program, cold map[string]bool, workers int) (map[string]*cfg.Block, map[string]string) {
	type verdict struct {
		block  *cfg.Block
		reason string // empty when compressible
	}
	scans, _ := parallel.Map(len(p.Funcs), workers, func(fi int) ([]verdict, error) {
		f := p.Funcs[fi]
		setjmp := f.CallsSetjmp()
		poisoned := false
		for _, b := range f.Blocks {
			if _, known := p.Succs(b); !known {
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
			case hasIndirectUnknownCall(p.Calls(b)):
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

// refProfitable is the paper's profitability test over labels.
func refProfitable(res *refResult, preds *refPreds, r *Region, gamma float64) bool {
	e := EntryStubWords * len(res.refEntries(preds, r))
	return float64(e) < (1-gamma)*float64(r.NumInsts())
}

// refNaturalLoop returns the labels of the natural loop of back edge
// latch→header, sorted.
func refNaturalLoop(preds *refPreds, inFunc map[string]*cfg.Block, latch, header string) []string {
	loop := map[string]bool{header: true}
	var stack []string
	if !loop[latch] {
		loop[latch] = true
		stack = append(stack, latch)
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for p := range preds.FlowPreds[b] {
			if inFunc[p] == nil || loop[p] {
				continue
			}
			loop[p] = true
			stack = append(stack, p)
		}
	}
	out := make([]string, 0, len(loop))
	for l := range loop {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// refSeedLoopRegions forms one region per compressible natural loop that
// fits the buffer, smallest first. The back edges come from cfg.Index,
// whose search the cfg package checks against its own label-keyed oracle.
func refSeedLoopRegions(p *cfg.Program, preds *refPreds, candidates map[string]*cfg.Block,
	assigned map[string]bool, res *refResult, maxWords int, gamma float64) []*Region {

	type loopInfo struct {
		blocks []string
		insts  int
	}
	x, err := cfg.NewIndex(p, 1)
	if err != nil {
		panic(err) // Partition indexed p first, and failed on the same error
	}
	var loops []loopInfo
	for _, e := range x.BackEdges() {
		inFunc := map[string]*cfg.Block{}
		for _, b := range p.Funcs[x.Fn[e.From]].Blocks {
			inFunc[b.Label] = b
		}
		blocks := refNaturalLoop(preds, inFunc, x.Blocks[e.From].Label, x.Blocks[e.To].Label)
		ok := true
		insts := 0
		for _, l := range blocks {
			if candidates[l] == nil || assigned[l] {
				ok = false
				break
			}
			insts += len(candidates[l].Insts)
		}
		if ok {
			loops = append(loops, loopInfo{blocks, insts})
		}
	}
	sort.Slice(loops, func(i, j int) bool {
		if loops[i].insts != loops[j].insts {
			return loops[i].insts < loops[j].insts
		}
		return loops[i].blocks[0] < loops[j].blocks[0]
	})

	var out []*Region
	for _, li := range loops {
		ok := true
		for _, l := range li.blocks {
			if assigned[l] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		r := &Region{ID: len(res.Regions) + len(out)}
		for _, l := range li.blocks {
			r.Blocks = append(r.Blocks, candidates[l])
		}
		if refBufferWords(p, r, nil) > maxWords {
			continue
		}
		for _, b := range r.Blocks {
			res.InRegion[b.Label] = r.ID
		}
		if !refProfitable(res, preds, r, gamma) {
			for _, b := range r.Blocks {
				delete(res.InRegion, b.Label)
			}
			continue
		}
		for _, b := range r.Blocks {
			assigned[b.Label] = true
		}
		out = append(out, r)
	}
	return out
}

// refPartition is Partition built on the label-keyed passes below.
func refPartition(p *cfg.Program, cold map[string]bool, conf Config) (*refResult, *refPreds, error) {
	if conf.K <= 0 || conf.Gamma <= 0 || conf.Gamma >= 1 {
		return nil, nil, fmt.Errorf("regions: invalid config K=%d gamma=%v", conf.K, conf.Gamma)
	}
	maxWords := conf.K / isa.WordSize
	preds := refBuildPreds(p, conf.Workers)
	candidates, excluded := refCompressible(p, cold, conf.Workers)

	res := &refResult{
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
			refSeedLoopRegions(p, preds, candidates, assigned, res, maxWords, conf.Gamma)...)
	}
	for _, f := range p.Funcs {
		for _, root := range f.Blocks {
			if assigned[root.Label] || noRetry[root.Label] || candidates[root.Label] == nil {
				continue
			}
			tree := refDfsTree(p, f, root, candidates, assigned, maxWords)
			if len(tree) == 0 {
				continue
			}
			r := &Region{ID: len(res.Regions), Blocks: tree}
			for _, b := range tree {
				res.InRegion[b.Label] = r.ID
			}
			if refProfitable(res, preds, r, conf.Gamma) {
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
		refPackRegions(p, res, preds, maxWords)
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
		if w := refBufferWords(p, r, nil); w > maxWords {
			return nil, nil, fmt.Errorf("regions: region %d needs %d words, bound is %d", r.ID, w, maxWords)
		}
	}
	return res, preds, nil
}

// refDfsTree grows a region from root by depth-first search over successor
// edges, restricted to compressible, unassigned blocks of the same
// function, keeping the exact buffer requirement within maxWords.
func refDfsTree(p *cfg.Program, f *cfg.Func, root *cfg.Block, candidates map[string]*cfg.Block, assigned map[string]bool, maxWords int) []*cfg.Block {
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
		if refBufferWords(p, &Region{Blocks: tree}, nil) > maxWords {
			tree = tree[:len(tree)-1]
			delete(seen, b.Label)
			return
		}
		succs, _ := p.Succs(b)
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
func refPackRegions(p *cfg.Program, res *refResult, preds *refPreds, maxWords int) {
	const restoreStubSavingWords = 3 // stub code words plus the buffer word

	live := map[int]*Region{}
	for _, r := range res.Regions {
		live[r.ID] = r
	}

	mergedBufferWords := func(a, b *Region) int {
		return refBufferWords(p, &Region{Blocks: append(append([]*cfg.Block{}, a.Blocks...), b.Blocks...)}, nil)
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
		before := len(refEntriesOf(preds, a, member)) + len(refEntriesOf(preds, b, member))
		after := len(refEntriesOf(preds, merged, memberMerged))
		s += EntryStubWords * (before - after)
		// Calls between the two regions become intra-region.
		for _, pair := range [2][2]*Region{{a, b}, {b, a}} {
			for _, blk := range pair[0].Blocks {
				for _, c := range p.Calls(blk) {
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
				succs, _ := p.Succs(blk)
				for _, s := range succs {
					if id, in := res.InRegion[s]; in {
						addPair(r.ID, id)
					}
				}
				for _, c := range p.Calls(blk) {
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
		wi := refBufferWords(p, live[ids[i]], nil)
		wj := refBufferWords(p, live[ids[j]], nil)
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
func refBuildPreds(p *cfg.Program, workers int) *refPreds {
	pr := &refPreds{
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
			succs, _ := p.Succs(b)
			for _, s := range succs {
				e.flow = append(e.flow, [2]string{s, b.Label})
			}
			for _, c := range p.Calls(b) {
				if c.Callee != "" && labels[c.Callee] {
					e.call = append(e.call, [2]string{c.Callee, b.Label})
				}
			}
			for i := range b.Insts {
				in := b.Insts[i]
				// A la of a code label takes its address (indirect call or
				// computed branch target).
				if in.Kind() == cfg.TargetLo16 && labels[p.Target(in)] {
					e.addrTaken = append(e.addrTaken, p.Target(in))
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

// refFirstFitDecreasing is the packer's phase 2 as a linear scan, kept as
// the oracle for the min-tree first fit: each region, largest first, tries
// every open bin in turn through mergedWords.
func refFirstFitDecreasing(pk *packer) {
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
