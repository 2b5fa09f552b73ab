// Package unswitch implements the paper's jump-table elimination (§6.2).
// Code regions containing indirect jumps through a jump table cannot simply
// be moved into the runtime buffer, because the table's addresses would
// point at the region's original location. The paper offers two options —
// updating the table or "unswitching" the region to use a series of
// conditional branches — and, like the paper's implementation, this package
// uses unswitching, after which the jump table's data space is reclaimed.
package unswitch

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/objfile"
)

// Stats reports what the pass did.
type Stats struct {
	Unswitched          int // jump-table dispatches rewritten
	TableBytesReclaimed int // data bytes freed by removed tables
	Skipped             int // resolvable tables left alone (predicate or pattern mismatch)
}

// Run unswitches every block accepted by shouldUnswitch that ends in a
// resolved jump-table dispatch matching the standard dispatch idiom:
//
//	sll  rI, 2, rT      ; scale the case index
//	ldah rB, hi(table)  ;\ la rB, table
//	lda  rB, lo(rB)     ;/
//	add  rB/rT, rT/rB, rB2
//	ldw  rX, 0(rB2)
//	jmp  (rX)
//
// The six instructions are replaced by a ladder of compare-and-branch
// blocks on rI. Tables no longer referenced are removed from the data
// section (the paper: "the space for the jump table can be reclaimed").
//
// Run does not validate the program it leaves: cfg.NewIndex, which every
// analysis of it builds first, does. The error result is always nil.
func Run(p *cfg.Program, shouldUnswitch func(*cfg.Block) bool) (*Stats, error) {
	st := &Stats{}
	var reclaim []string // table symbols whose dispatch was removed
	for _, f := range p.Funcs {
		for bi := 0; bi < len(f.Blocks); bi++ {
			b := f.Blocks[bi]
			if b.JT == nil || (shouldUnswitch != nil && !shouldUnswitch(b)) {
				if b.JT != nil {
					st.Skipped++
				}
				continue
			}
			m, ok := matchDispatch(p, b)
			if !ok {
				st.Skipped++
				continue
			}
			ladder := buildLadder(p, f, b, m)
			// Splice the ladder blocks right after b.
			rest := append([]*cfg.Block{}, f.Blocks[bi+1:]...)
			f.Blocks = append(f.Blocks[:bi+1], append(ladder, rest...)...)
			bi += len(ladder)
			st.Unswitched++
			reclaim = append(reclaim, m.tableSym)
		}
	}
	if len(reclaim) > 0 {
		live := referencedSymbols(p, reclaim)
		for _, sym := range reclaim {
			if n, err := reclaimTable(p, sym, live); err == nil {
				st.TableBytesReclaimed += n
			}
		}
	}
	return st, nil
}

type dispatch struct {
	start    int // index of the sll instruction within the block
	indexReg uint32
	scratch  uint32
	tableSym string
}

// matchDispatch matches the six-instruction dispatch idiom at the end of b.
func matchDispatch(p *cfg.Program, b *cfg.Block) (dispatch, bool) {
	n := len(b.Insts)
	if n < 6 {
		return dispatch{}, false
	}
	i := b.Insts[n-6:]
	sll, hi, lo, add, ldw, jmp := i[0], i[1], i[2], i[3], i[4], i[5]
	if jmp.Raw() || jmp.Format() != isa.FormatJump || jmp.JFunc() != isa.JmpJMP {
		return dispatch{}, false
	}
	x := jmp.RB()
	if ldw.Op() != isa.OpLDW || ldw.RA() != x || ldw.Disp() != 0 {
		return dispatch{}, false
	}
	b2 := ldw.RB()
	if add.Op() != isa.OpIntA || add.Format() != isa.FormatOpReg || add.Func() != isa.FnADD || add.RC() != b2 {
		return dispatch{}, false
	}
	tableSym := p.Target(lo)
	if lo.Kind() != cfg.TargetLo16 || hi.Kind() != cfg.TargetHi16 || p.Target(hi) != tableSym {
		return dispatch{}, false
	}
	base := lo.RA()
	var t uint32
	switch {
	case add.RA() == base:
		t = add.RB()
	case add.RB() == base:
		t = add.RA()
	default:
		return dispatch{}, false
	}
	if sll.Op() != isa.OpIntS || sll.Func() != isa.FnSLL || sll.Format() != isa.FormatOpLit ||
		sll.Lit() != 2 || sll.RC() != t {
		return dispatch{}, false
	}
	if len(b.JT.Targets) > 256 {
		return dispatch{}, false // literal compare operand limit
	}
	return dispatch{
		start:    n - 6,
		indexReg: sll.RA(),
		scratch:  t,
		tableSym: tableSym,
	}, true
}

// buildLadder rewrites b's dispatch into compare-and-branch blocks and
// returns the new blocks to insert after b.
func buildLadder(p *cfg.Program, f *cfg.Func, b *cfg.Block, m dispatch) []*cfg.Block {
	targets := b.JT.Targets
	freq := b.Freq
	b.Insts = b.Insts[:m.start]
	b.JT = nil

	br := func(op, ra uint32, target string) cfg.Inst {
		return p.Refer(isa.Encode(isa.Br(op, ra, 0)), cfg.TargetBranch, target, 0)
	}
	cmpBr := func(caseIdx int, target string) []cfg.Inst {
		return []cfg.Inst{
			{Word: isa.Encode(isa.OpL(isa.OpIntA, m.indexReg, uint32(caseIdx), isa.FnCMPEQ, m.scratch))},
			br(isa.OpBNE, m.scratch, target),
		}
	}

	if len(targets) == 1 {
		b.Insts = append(b.Insts, br(isa.OpBR, isa.RegZero, targets[0]))
		b.FallsTo = ""
		recount(b, freq)
		return nil
	}

	// First compare stays in b; subsequent compares form new blocks.
	b.Insts = append(b.Insts, cmpBr(0, targets[0])...)
	var ladder []*cfg.Block
	for k := 1; k < len(targets)-1; k++ {
		nb := &cfg.Block{
			Label: fmt.Sprintf("%s$usw%d", b.Label, k),
			Insts: cmpBr(k, targets[k]),
			Freq:  freq,
		}
		ladder = append(ladder, nb)
	}
	final := &cfg.Block{
		Label: fmt.Sprintf("%s$usw%d", b.Label, len(targets)-1),
		Insts: []cfg.Inst{br(isa.OpBR, isa.RegZero, targets[len(targets)-1])},
		Freq:  freq,
	}
	ladder = append(ladder, final)
	b.FallsTo = ladder[0].Label
	for i := 0; i < len(ladder)-1; i++ {
		ladder[i].FallsTo = ladder[i+1].Label
	}
	recount(b, freq)
	for _, nb := range ladder {
		recount(nb, freq)
	}
	return ladder
}

func recount(b *cfg.Block, freq uint64) {
	b.Freq = freq
	b.Weight = freq * uint64(len(b.Insts))
}

// referencedSymbols reports which of syms an instruction still references.
// One scan serves every reclaimTable call of a Run: reclamation edits only
// the data section, so the set cannot change between calls.
func referencedSymbols(p *cfg.Program, syms []string) map[string]bool {
	live := make(map[string]bool, len(syms))
	for _, sym := range syms {
		live[sym] = false
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				switch in.Kind() {
				case cfg.TargetNone, cfg.TargetRaw:
					continue
				}
				sym := p.Target(in)
				if _, ok := live[sym]; ok {
					live[sym] = true
				}
			}
		}
	}
	return live
}

// reclaimTable removes the jump table at symbol sym from the data section
// when no instruction references it (live, from referencedSymbols). It
// returns the number of bytes freed.
func reclaimTable(p *cfg.Program, sym string, live map[string]bool) (int, error) {
	// Any surviving la of the symbol blocks reclamation.
	if live[sym] {
		return 0, fmt.Errorf("unswitch: table %s still referenced", sym)
	}
	var start uint32
	found := false
	for _, s := range p.DataSymbols {
		if s.Name == sym {
			start, found = s.Offset, true
			break
		}
	}
	if !found {
		return 0, fmt.Errorf("unswitch: table symbol %s not found", sym)
	}
	// Extent: consecutive relocated words from start until the next symbol.
	end := uint32(len(p.Data))
	for _, s := range p.DataSymbols {
		if s.Offset > start && s.Offset < end {
			end = s.Offset
		}
	}
	hasReloc := func(off uint32) bool {
		for _, r := range p.DataRelocs {
			if r.Offset == off {
				return true
			}
		}
		return false
	}
	extent := start
	for extent+4 <= end && hasReloc(extent) {
		extent += 4
	}
	n := int(extent - start)
	if n == 0 {
		return 0, nil
	}
	// Remove bytes and shift everything after.
	p.Data = append(p.Data[:start], p.Data[extent:]...)
	var relocs []objfile.Reloc
	for _, r := range p.DataRelocs {
		if r.Offset >= start && r.Offset < extent {
			continue
		}
		if r.Offset >= extent {
			r.Offset -= uint32(n)
		}
		relocs = append(relocs, r)
	}
	p.DataRelocs = relocs
	var syms []objfile.Symbol
	for _, s := range p.DataSymbols {
		if s.Name == sym {
			continue
		}
		if s.Offset >= extent {
			s.Offset -= uint32(n)
		}
		syms = append(syms, s)
	}
	p.DataSymbols = syms
	return n, nil
}
