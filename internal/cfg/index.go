package cfg

import (
	"sort"
	"sync"

	"repro/internal/parallel"
)

// Block numbers that name no block.
const (
	// NoBlock stands for no block: an absent fallthrough, or a callee that
	// is not a block of the program.
	NoBlock int32 = -1
	// NotABlock is a fallthrough to a label that names no block (only an
	// invalid program has one); it matches no layout successor.
	NotABlock int32 = -2
)

// Index numbers a program's blocks densely, in function and layout order,
// and records once the per-block facts the squash analyses ask for: the
// owning function, successors, flow predecessors, callers, call sites and
// the address-taken bit. The analyses then read slices indexed by block
// number instead of hashing labels or re-walking instructions. An Index
// describes the program as it was when built; rewriting the program's
// blocks invalidates it.
type Index struct {
	Prog *Program
	// Blocks holds each block by number.
	Blocks []*Block
	// Fn holds, by block number, the index in Prog.Funcs of the block's
	// function.
	Fn []int32
	// FuncStart holds the first block number of each function and, last,
	// len(Blocks): function f owns blocks FuncStart[f] to FuncStart[f+1]-1.
	FuncStart []int32
	// FallsTo holds each block's fallthrough successor: a block number,
	// NoBlock when the block does not fall through, or NotABlock.
	FallsTo []int32
	// AddrTaken marks blocks whose address escapes into data or into a
	// register (la): control may arrive from anywhere.
	AddrTaken []bool
	// Unresolved marks blocks ending in an indirect jump whose targets are
	// unknown (Program.Succs reports them as not known).
	Unresolved []bool
	// Entry is the number of the program's entry block, or NoBlock.
	Entry int32

	num    map[string]int32
	succ   adjacency // Program.Succs that are blocks, in order, repeats kept
	pred   adjacency // flow predecessors: succ transposed
	caller adjacency // one entry per call site whose callee is the block
	// calls holds every block's call sites (Program.Calls) and callee the
	// block number of each site's callee, or NoBlock; block i's sites are
	// calls[callStart[i]:callStart[i+1]].
	callStart []int32
	calls     []CallSite
	callee    []int32
}

// adjacency is a compressed sparse row list: node i's neighbours are
// to[start[i]:start[i+1]].
type adjacency struct {
	start []int32
	to    []int32
}

func (a *adjacency) of(i int32) []int32 { return a.to[a.start[i]:a.start[i+1]] }

// indexChunk is one worker's share of the per-block scan: the flat lists of
// the blocks from lo on, in block order.
type indexChunk struct {
	lo     int32
	succs  []int32
	calls  []CallSite
	callee []int32
	taken  []int32 // code labels an la takes the address of
}

// NewIndex numbers p's blocks and scans each once. The scan fans out over
// contiguous block ranges on the given worker count (<= 0 means one per
// CPU); every range fills only its own blocks' slots and the ranges are
// joined in block order, so the index is identical at any worker count.
func NewIndex(p *Program, workers int) *Index {
	n := p.NumBlocks()
	x := &Index{
		Prog:       p,
		Blocks:     make([]*Block, 0, n),
		Fn:         make([]int32, n),
		FuncStart:  make([]int32, len(p.Funcs)+1),
		FallsTo:    make([]int32, n),
		AddrTaken:  make([]bool, n),
		Unresolved: make([]bool, n),
		num:        make(map[string]int32, n),
		succ:       adjacency{start: make([]int32, n+1)},
		callStart:  make([]int32, n+1),
	}
	for fi, f := range p.Funcs {
		x.FuncStart[fi] = int32(len(x.Blocks))
		for _, b := range f.Blocks {
			x.Fn[len(x.Blocks)] = int32(fi)
			x.num[b.Label] = int32(len(x.Blocks))
			x.Blocks = append(x.Blocks, b)
		}
	}
	x.FuncStart[len(p.Funcs)] = int32(n)

	var (
		mu     sync.Mutex
		chunks []*indexChunk
	)
	_ = parallel.ForEachChunk(n, workers, 256, func(lo, hi int) error {
		c := x.scan(lo, hi)
		mu.Lock()
		chunks = append(chunks, c)
		mu.Unlock()
		return nil
	})
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].lo < chunks[j].lo })
	for ci, c := range chunks {
		if ci == 0 {
			x.succ.to, x.calls, x.callee = c.succs, c.calls, c.callee
		} else {
			x.succ.to = append(x.succ.to, c.succs...)
			x.calls = append(x.calls, c.calls...)
			x.callee = append(x.callee, c.callee...)
		}
		for _, t := range c.taken {
			x.AddrTaken[t] = true
		}
	}
	for i := 0; i < n; i++ {
		x.succ.start[i+1] += x.succ.start[i]
		x.callStart[i+1] += x.callStart[i]
	}
	for _, r := range p.DataRelocs {
		if t := x.Num(r.Sym); t >= 0 {
			x.AddrTaken[t] = true
		}
	}
	x.Entry = x.Num(p.Entry)
	x.pred = transpose(n, x.succ)
	x.caller = transpose(n, adjacency{start: x.callStart, to: x.callee})
	return x
}

// scan records blocks lo to hi-1: their successor and call-site counts go
// into the blocks' own slots, their lists into the returned chunk.
func (x *Index) scan(lo, hi int) *indexChunk {
	c := &indexChunk{lo: int32(lo)}
	var labels []string
	for i := lo; i < hi; i++ {
		b := x.Blocks[i]
		var known bool
		labels, known = x.Prog.appendSuccs(labels[:0], b)
		x.Unresolved[i] = !known
		ns := len(c.succs)
		for _, l := range labels {
			if t := x.Num(l); t >= 0 {
				c.succs = append(c.succs, t)
			}
		}
		x.succ.start[i+1] = int32(len(c.succs) - ns)
		nc := len(c.calls)
		c.calls = x.Prog.appendCalls(c.calls, b)
		for _, cs := range c.calls[nc:] {
			t := NoBlock
			if cs.Callee != "" {
				t = x.Num(cs.Callee)
			}
			c.callee = append(c.callee, t)
		}
		x.callStart[i+1] = int32(len(c.calls) - nc)
		x.FallsTo[i] = NoBlock
		if b.FallsTo != "" {
			x.FallsTo[i] = NotABlock
			if t := x.Num(b.FallsTo); t >= 0 {
				x.FallsTo[i] = t
			}
		}
		for _, in := range b.Insts {
			// A la of a code label takes its address (indirect call or
			// computed branch target).
			if in.Kind() == TargetLo16 {
				if t := x.Num(x.Prog.Target(in)); t >= 0 {
					c.taken = append(c.taken, t)
				}
			}
		}
	}
	return c
}

// transpose reverses the edges of a, skipping negative targets; each node's
// sources come out in ascending order, one per edge.
func transpose(n int, a adjacency) adjacency {
	t := adjacency{start: make([]int32, n+1)}
	for _, d := range a.to {
		if d >= 0 {
			t.start[d+1]++
		}
	}
	for i := 0; i < n; i++ {
		t.start[i+1] += t.start[i]
	}
	t.to = make([]int32, t.start[n])
	next := append([]int32(nil), t.start[:n]...)
	for s := int32(0); s < int32(n); s++ {
		for _, d := range a.of(s) {
			if d >= 0 {
				t.to[next[d]] = s
				next[d]++
			}
		}
	}
	return t
}

// Num returns the number of the block with the given label, or NoBlock.
func (x *Index) Num(label string) int32 {
	if i, ok := x.num[label]; ok {
		return i
	}
	return NoBlock
}

// Succs returns block i's successors that are blocks, in Program.Succs order
// (a successor reached two ways appears twice).
func (x *Index) Succs(i int32) []int32 { return x.succ.of(i) }

// Preds returns the blocks with a branch or fallthrough edge to block i,
// one entry per edge.
func (x *Index) Preds(i int32) []int32 { return x.pred.of(i) }

// Callers returns the blocks with a call to block i, one entry per call
// site.
func (x *Index) Callers(i int32) []int32 { return x.caller.of(i) }

// Calls returns block i's call sites, as Program.Calls reports them.
func (x *Index) Calls(i int32) []CallSite {
	return x.calls[x.callStart[i]:x.callStart[i+1]]
}

// Callees returns the block number of the callee of each of block i's call
// sites, in Calls order: NoBlock for an unresolved indirect call or a
// callee that is not a block.
func (x *Index) Callees(i int32) []int32 {
	return x.callee[x.callStart[i]:x.callStart[i+1]]
}

// Edge is a control-flow edge between two numbered blocks.
type Edge struct{ From, To int32 }

// BackEdges finds the back edges of every function: intra-procedural edges
// whose target is an ancestor of their source in the depth-first spanning
// tree, the signature of a loop. The paper warns (§7) that the region
// partitioner "may split a loop into multiple regions", causing a
// decompression per iteration if the timing input drives the loop. The
// search runs from each function's blocks in layout order and follows
// successors in Succs order; unknown indirect jumps contribute no edges
// (their blocks are excluded from compression anyway).
func (x *Index) BackEdges() []Edge {
	const (
		white = 0 // unvisited
		gray  = 1 // on the DFS stack
		black = 2 // done
	)
	color := make([]uint8, len(x.Blocks))
	type frame struct {
		block int32
		next  int // index of the next successor to follow
	}
	var out []Edge
	var stack []frame
	for f := 0; f+1 < len(x.FuncStart); f++ {
		lo, hi := x.FuncStart[f], x.FuncStart[f+1]
		for root := lo; root < hi; root++ {
			if color[root] != white {
				continue
			}
			color[root] = gray
			stack = append(stack, frame{block: root})
			for len(stack) > 0 {
				fr := &stack[len(stack)-1]
				succs := x.Succs(fr.block)
				if fr.next < len(succs) {
					s := succs[fr.next]
					fr.next++
					if s < lo || s >= hi {
						continue // another function's block
					}
					switch color[s] {
					case white:
						color[s] = gray
						stack = append(stack, frame{block: s})
					case gray:
						out = append(out, Edge{From: fr.block, To: s})
					}
					continue
				}
				color[fr.block] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return out
}
