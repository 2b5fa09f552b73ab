package cfg

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/parallel"
)

// NoBlock stands for no block: an absent fallthrough, or a reference or
// callee that is not a block of the program.
const NoBlock int32 = -1

// Index numbers a program's blocks densely, in function and layout order,
// and records once the per-block facts the squash analyses ask for: the
// owning function, successors, flow predecessors, callers, call sites and
// the address-taken bit. It resolves every symbolic reference once, too, so
// the analyses and the encoder read slices indexed by block or reference
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
	// FallsTo holds each block's fallthrough successor: a block number, or
	// NoBlock when the block does not fall through.
	FallsTo []int32
	// AddrTaken marks blocks whose address escapes into data or into a
	// register (la): control may arrive from anywhere.
	AddrTaken []bool
	// Unresolved marks blocks ending in an indirect jump whose targets are
	// unknown (Program.Succs reports them as not known).
	Unresolved []bool
	// Entry is the number of the program's entry block, or NoBlock.
	Entry int32
	// RefTo holds, for each entry of Prog.Refs, the number of the block its
	// symbol labels, or NoBlock.
	RefTo []int32
	// RelocTo holds, for each of Prog.DataRelocs, the number of the block
	// its symbol labels, or NoBlock.
	RelocTo []int32

	// refData holds, for each entry of Prog.Refs, the index in
	// Prog.DataSymbols of the data symbol it names, or -1. An entry no
	// instruction uses may name neither a block nor a data symbol.
	refData []int32
	// num maps each block label to its number and each other data symbol
	// name to -1-k, for its index k in Prog.DataSymbols.
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
// the blocks from lo on, in block order, and the first defect met.
type indexChunk struct {
	lo     int32
	succs  []int32
	calls  []CallSite
	callee []int32
	taken  []int32 // code labels an la takes the address of
	err    error
}

// NewIndex numbers p's blocks and scans each once. The scan fans out over
// contiguous block ranges on the given worker count (<= 0 means one per
// CPU); every range fills only its own blocks' slots and the ranges are
// joined in block order, so the index is identical at any worker count.
//
// NewIndex checks what Program.Validate does, and fails where it fails:
// every function's first block is labelled with its name, labels are
// unique, and every reference an instruction makes, every fallthrough and
// the entry resolve. Each label and data symbol name is hashed once, into
// the index's one map, and each reference once, to resolve it.
func NewIndex(p *Program, workers int) (*Index, error) {
	n := p.NumBlocks()
	x := &Index{
		Prog:       p,
		Blocks:     make([]*Block, 0, n),
		Fn:         make([]int32, n),
		FuncStart:  make([]int32, len(p.Funcs)+1),
		FallsTo:    make([]int32, n),
		AddrTaken:  make([]bool, n),
		Unresolved: make([]bool, n),
		RefTo:      make([]int32, len(p.Refs)),
		refData:    make([]int32, len(p.Refs)),
		RelocTo:    make([]int32, len(p.DataRelocs)),
		num:        make(map[string]int32, n+len(p.DataSymbols)),
		succ:       adjacency{start: make([]int32, n+1)},
		callStart:  make([]int32, n+1),
	}
	for fi, f := range p.Funcs {
		if len(f.Blocks) == 0 {
			return nil, fmt.Errorf("cfg: function %s has no blocks", f.Name)
		}
		if f.Blocks[0].Label != f.Name {
			return nil, fmt.Errorf("cfg: function %s entry block labelled %s", f.Name, f.Blocks[0].Label)
		}
		x.FuncStart[fi] = int32(len(x.Blocks))
		for _, b := range f.Blocks {
			i := int32(len(x.Blocks))
			x.Fn[i] = int32(fi)
			m := len(x.num)
			if x.num[b.Label] = i; len(x.num) == m {
				return nil, fmt.Errorf("cfg: duplicate label %s", b.Label)
			}
			x.Blocks = append(x.Blocks, b)
		}
	}
	x.FuncStart[len(p.Funcs)] = int32(n)
	for k := range p.DataSymbols {
		if name := p.DataSymbols[k].Name; x.Num(name) == NoBlock {
			x.num[name] = -1 - int32(k)
		}
	}
	for k := range p.Refs {
		x.RefTo[k], x.refData[k] = NoBlock, -1
		if v, ok := x.num[p.Refs[k].Sym]; ok && v >= 0 {
			x.RefTo[k] = v
		} else if ok {
			x.refData[k] = -1 - v
		}
	}

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
		if c.err != nil {
			return nil, c.err
		}
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
	for k := range p.DataRelocs {
		t := x.Num(p.DataRelocs[k].Sym)
		x.RelocTo[k] = t
		if t >= 0 {
			x.AddrTaken[t] = true
		}
	}
	x.Entry = x.Num(p.Entry)
	if p.Entry != "" && x.Entry == NoBlock {
		return nil, fmt.Errorf("cfg: entry %q not defined", p.Entry)
	}
	x.pred = transpose(n, x.succ)
	x.caller = transpose(n, adjacency{start: x.callStart, to: x.callee})
	return x, nil
}

// scan records blocks lo to hi-1: their successor and call-site counts go
// into the blocks' own slots, their lists into the returned chunk. Targets
// come from RefTo; only jump-table targets and a fallthrough to a block
// other than the next are looked up by label.
func (x *Index) scan(lo, hi int) *indexChunk {
	c := &indexChunk{lo: int32(lo)}
	for i := lo; i < hi; i++ {
		b := x.Blocks[i]
		ns := len(c.succs)
		switch br, jmp := exits(b); {
		case br.Kind() == TargetBranch:
			if t := x.RefTo[br.refIndex()]; t >= 0 {
				c.succs = append(c.succs, t)
			}
		case jmp && b.JT != nil:
			for _, l := range b.JT.Targets {
				if t := x.Num(l); t >= 0 {
					c.succs = append(c.succs, t)
				}
			}
		case jmp:
			x.Unresolved[i] = true
		}
		x.FallsTo[i] = NoBlock
		if b.FallsTo != "" {
			t := int32(i + 1)
			if t == int32(len(x.Blocks)) || x.Blocks[t].Label != b.FallsTo {
				if t = x.Num(b.FallsTo); t == NoBlock {
					c.err = fmt.Errorf("cfg: block %s falls through to undefined label %q", b.Label, b.FallsTo)
					return c
				}
			}
			x.FallsTo[i] = t
			c.succs = append(c.succs, t)
		}
		x.succ.start[i+1] = int32(len(c.succs) - ns)
		nc := len(c.calls)
		// One walk records the call sites and checks the references.
		for j, in := range b.Insts {
			if mayCall(in) {
				if cs, ok := x.Prog.callAt(b, j, in); ok {
					t := NoBlock
					if cs.ref > 0 {
						t = x.RefTo[cs.ref-1]
					}
					c.calls = append(c.calls, cs)
					c.callee = append(c.callee, t)
				}
			}
			switch in.Kind() {
			case TargetNone, TargetRaw:
				continue
			}
			k := in.refIndex()
			if x.RefTo[k] == NoBlock && x.refData[k] < 0 {
				c.err = fmt.Errorf("cfg: block %s references undefined symbol %q", b.Label, x.Prog.Refs[k].Sym)
				return c
			}
			// A la of a code label takes its address (indirect call or
			// computed branch target).
			if in.Kind() == TargetLo16 && x.RefTo[k] >= 0 {
				c.taken = append(c.taken, x.RefTo[k])
			}
		}
		x.callStart[i+1] = int32(len(c.calls) - nc)
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
	if i, ok := x.num[label]; ok && i >= 0 {
		return i
	}
	return NoBlock
}

// DataSym returns the index in Prog.DataSymbols of the data symbol with the
// given name, or -1 when no data symbol has it or a block label does. Of
// data symbols sharing a name, it returns the last.
func (x *Index) DataSym(name string) int32 {
	if v, ok := x.num[name]; ok && v < 0 {
		return -1 - v
	}
	return -1
}

// Target returns the number of the block in references, or NoBlock.
func (x *Index) Target(in Inst) int32 {
	switch in.Kind() {
	case TargetNone, TargetRaw:
		return NoBlock
	}
	return x.RefTo[in.refIndex()]
}

// DataTarget returns the index in Prog.DataSymbols of the data symbol in
// references, or -1.
func (x *Index) DataTarget(in Inst) int32 {
	switch in.Kind() {
	case TargetNone, TargetRaw:
		return -1
	}
	return x.refData[in.refIndex()]
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
