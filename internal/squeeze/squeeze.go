// Package squeeze implements a simplified version of the paper's prior-work
// code compactor [7] (Debray, Evans, Muth & De Sutter, "Compiler Techniques
// for Code Compaction", TOPLAS 2000). The paper's squash tool operates on
// binaries already compacted by squeeze, and Table 1 reports sizes before
// and after it; this package reproduces the passes that account for the
// bulk of squeeze's ≈30% reduction:
//
//   - unreachable function and basic-block elimination,
//   - no-op elimination, and
//   - procedural abstraction: repeated instruction sequences are replaced
//     by calls to a single representative function.
//
// The abstraction pass is conservative about the return-address register:
// it only abstracts runs from blocks that never touch RA inside functions
// that themselves make calls (such functions save RA in their prologue and
// restore it in their epilogue, both of which touch RA and are therefore
// never candidates).
package squeeze

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cfg"
	"repro/internal/isa"
)

// Stats reports what the compactor did.
type Stats struct {
	InputInsts        int
	OutputInsts       int
	FuncsRemoved      int
	BlocksRemoved     int
	InstsUnreachable  int // instructions inside removed funcs/blocks
	NopsRemoved       int
	AbstractedFuncs   int // representative functions created
	AbstractedSavings int // net instructions saved by abstraction
}

// Reduction reports the fractional size reduction achieved.
func (s *Stats) Reduction() float64 {
	if s.InputInsts == 0 {
		return 0
	}
	return 1 - float64(s.OutputInsts)/float64(s.InputInsts)
}

// MinRunLen is the shortest instruction run considered for procedural
// abstraction. Shorter runs cannot amortize the bsr/ret overhead.
const MinRunLen = 6

// Options selects which passes run; the zero value runs everything. The
// per-pass switches exist for the ablation benchmarks.
type Options struct {
	NoUnreachable bool
	NoNops        bool
	NoAbstraction bool
}

// Run compacts the program in place with all passes enabled.
func Run(p *cfg.Program) (*Stats, error) { return RunOpts(p, Options{}) }

// RunOpts compacts the program in place and returns statistics.
func RunOpts(p *cfg.Program, opts Options) (*Stats, error) {
	st := &Stats{InputInsts: p.NumInsts()}
	if !opts.NoUnreachable {
		removeUnreachable(p, st)
	}
	if !opts.NoNops {
		removeNops(p, st)
	}
	if !opts.NoAbstraction {
		abstractRepeats(p, st)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("squeeze: output invalid: %w", err)
	}
	st.OutputInsts = p.NumInsts()
	return st, nil
}

// removeUnreachable drops functions that can never be entered and blocks
// that can never be reached within surviving functions.
func removeUnreachable(p *cfg.Program, st *Stats) {
	blocks := make(map[string]*cfg.Block)
	owner := make(map[string]*cfg.Func)
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			blocks[b.Label] = b
			owner[b.Label] = f
		}
	}
	dataSymAt := make(map[string]uint32)
	for _, s := range p.DataSymbols {
		dataSymAt[s.Name] = s.Offset
	}
	// Data words holding code addresses, grouped by the data symbol region
	// they live in: loading that symbol's address makes those code labels
	// reachable.
	symOffsets := make([]uint32, 0, len(p.DataSymbols))
	for _, s := range p.DataSymbols {
		symOffsets = append(symOffsets, s.Offset)
	}
	sort.Slice(symOffsets, func(i, j int) bool { return symOffsets[i] < symOffsets[j] })
	regionOf := func(off uint32) uint32 {
		lo := uint32(0)
		for _, so := range symOffsets {
			if so <= off {
				lo = so
			} else {
				break
			}
		}
		return lo
	}
	codeRefsByRegion := make(map[uint32][]string)
	for _, r := range p.DataRelocs {
		if _, isCode := blocks[r.Sym]; isCode {
			reg := regionOf(r.Offset)
			codeRefsByRegion[reg] = append(codeRefsByRegion[reg], r.Sym)
		}
	}

	reach := map[string]bool{}
	var work []string
	push := func(label string) {
		if label != "" && !reach[label] && blocks[label] != nil {
			reach[label] = true
			work = append(work, label)
		}
	}
	push(p.Entry)
	for len(work) > 0 {
		label := work[len(work)-1]
		work = work[:len(work)-1]
		b := blocks[label]
		succs, known := p.Succs(b)
		if !known {
			// Unknown indirect jump: conservatively keep every block of
			// the owning function reachable.
			for _, bb := range owner[label].Blocks {
				push(bb.Label)
			}
		}
		for _, s := range succs {
			push(s)
		}
		for _, c := range p.Calls(b) {
			if c.Callee != "" {
				push(c.Callee)
			}
		}
		for _, in := range b.Insts {
			switch in.Kind() {
			case cfg.TargetLo16, cfg.TargetHi16:
				sym := p.Target(in)
				if _, isCode := blocks[sym]; isCode {
					push(sym)
				} else if off, isData := dataSymAt[sym]; isData {
					for _, lbl := range codeRefsByRegion[off] {
						push(lbl)
					}
				}
			case cfg.TargetBranch:
				push(p.Target(in))
			}
		}
	}

	var funcs []*cfg.Func
	for _, f := range p.Funcs {
		if !reach[f.Name] {
			st.FuncsRemoved++
			for _, b := range f.Blocks {
				st.InstsUnreachable += len(b.Insts)
			}
			continue
		}
		var kept []*cfg.Block
		for _, b := range f.Blocks {
			if reach[b.Label] {
				kept = append(kept, b)
			} else {
				st.BlocksRemoved++
				st.InstsUnreachable += len(b.Insts)
			}
		}
		f.Blocks = kept
		funcs = append(funcs, f)
	}
	p.Funcs = funcs
}

// removeNops deletes architecturally inert instructions.
func removeNops(p *cfg.Program, st *Stats) {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			kept := b.Insts[:0]
			for i, in := range b.Insts {
				switch in.Kind() {
				case cfg.TargetRaw:
				case cfg.TargetBranch:
					// Displacements are symbolic (encoded as zero) in the
					// IR, so isa.IsNop cannot be consulted here. A
					// conditional branch whose target is the block's own
					// fallthrough is inert — but only in terminal position.
					if isa.IsCondBranchOp(in.Op()) && i == len(b.Insts)-1 && p.Target(in) == b.FallsTo {
						st.NopsRemoved++
						continue
					}
				case cfg.TargetHi16, cfg.TargetLo16:
					// la halves write a register; never nops.
				default:
					if isa.IsNop(isa.Decode(in.Word)) {
						st.NopsRemoved++
						continue
					}
				}
				kept = append(kept, in)
			}
			b.Insts = kept
		}
	}
}

// runKey builds a structural fingerprint for an instruction run: encoded
// words plus symbolic targets.
func runKey(p *cfg.Program, insts []cfg.Inst) string {
	var sb strings.Builder
	for _, in := range insts {
		if in.Raw() {
			fmt.Fprintf(&sb, "raw:%x;", in.Word)
			continue
		}
		r := p.RefOf(in)
		fmt.Fprintf(&sb, "%x:%d:%s:%d;", in.Word, in.Kind(), r.Sym, r.Addend)
	}
	return sb.String()
}

// pureForAbstraction reports whether the instruction may be moved into an
// abstracted function: straight-line, no control transfer, no system call,
// and no use of the return-address register.
func pureForAbstraction(in cfg.Inst) bool {
	if in.Raw() {
		return false
	}
	switch in.Format() {
	case isa.FormatBranch, isa.FormatJump, isa.FormatPal, isa.FormatIllegal:
		return false
	}
	return !cfg.TouchesReg(in, isa.RegRA)
}

type runRef struct {
	block *cfg.Block
	start int
	n     int
}

// raDeadAfter reports whether the return-address register is provably dead
// immediately after instruction index end in block b: the next instruction
// in the block that touches RA must write it (prologue save via bsr, or an
// epilogue ldw ra). Reaching the end of the block without seeing a write is
// treated as live (the successor may read RA, e.g. a leaf return).
func raDeadAfter(b *cfg.Block, end int) bool {
	for i := end; i < len(b.Insts); i++ {
		in := b.Insts[i]
		if in.Raw() {
			return false
		}
		if cfg.ReadsReg(in, isa.RegRA) {
			return false
		}
		if cfg.WritesReg(in, isa.RegRA) {
			return true
		}
	}
	return false
}

// abstractRepeats performs procedural abstraction of repeated straight-line
// runs (the suffix-free simplification: whole maximal runs are matched).
// A run can be replaced by a bsr only where that clobber of the return-
// address register is provably harmless (see raDeadAfter).
func abstractRepeats(p *cfg.Program, st *Stats) {
	occurrences := map[string][]runRef{}
	var keyOrder []string
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			i := 0
			for i < len(b.Insts) {
				if !pureForAbstraction(b.Insts[i]) {
					i++
					continue
				}
				j := i
				for j < len(b.Insts) && pureForAbstraction(b.Insts[j]) {
					j++
				}
				if j-i >= MinRunLen && raDeadAfter(b, j) {
					key := runKey(p, b.Insts[i:j])
					if len(occurrences[key]) == 0 {
						keyOrder = append(keyOrder, key)
					}
					occurrences[key] = append(occurrences[key], runRef{b, i, j - i})
				}
				i = j
			}
		}
	}

	n := 0
	type edit struct {
		start, n int
		callee   string
	}
	edits := map[*cfg.Block][]edit{}
	for _, key := range keyOrder {
		occ := occurrences[key]
		count := len(occ)
		runLen := occ[0].n
		if count < 2 {
			continue
		}
		// Savings: count*runLen instructions become count calls plus one
		// function of runLen+1 instructions (body + ret).
		savings := count*runLen - count - (runLen + 1)
		if savings <= 0 {
			continue
		}
		name := fmt.Sprintf("pa$%d", n)
		n++
		body := make([]cfg.Inst, runLen+1)
		copy(body, occ[0].block.Insts[occ[0].start:occ[0].start+runLen])
		body[runLen] = cfg.Inst{Word: isa.Encode(isa.Jump(isa.JmpRET, isa.RegZero, isa.RegRA, 0))}
		nb := &cfg.Block{Label: name, Insts: body}
		p.Funcs = append(p.Funcs, &cfg.Func{Name: name, Blocks: []*cfg.Block{nb}})
		for _, o := range occ {
			edits[o.block] = append(edits[o.block], edit{o.start, o.n, name})
		}
		st.AbstractedFuncs++
		st.AbstractedSavings += savings
	}
	// Apply edits back-to-front within each block so indices stay valid.
	for b, es := range edits {
		sort.Slice(es, func(i, j int) bool { return es[i].start > es[j].start })
		for _, e := range es {
			call := p.Refer(isa.Encode(isa.Br(isa.OpBSR, isa.RegRA, 0)), cfg.TargetBranch, e.callee, 0)
			rest := append([]cfg.Inst{call}, b.Insts[e.start+e.n:]...)
			b.Insts = append(b.Insts[:e.start], rest...)
		}
	}
}
