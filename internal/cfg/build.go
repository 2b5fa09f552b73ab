package cfg

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/isa"
	"repro/internal/objfile"
	"repro/internal/parallel"
)

// Build lifts a relocatable object into a Program. The entry argument names
// the entry function (usually "main").
//
// Every text symbol starts a basic block; further block boundaries come from
// branch-relocation targets and from instructions that end blocks (branches,
// jumps, returns, halt/longjmp system calls, illegal words). Calls (bsr/jsr)
// do not end blocks. Jump tables are discovered from relocations: an
// indirect jmp is resolved if its block loads the address of a data symbol
// whose contents are consecutive word relocations to text symbols.
//
// All instructions are lifted into one backing array of 8-byte records,
// each the canonical word plus an index into the program's side table of
// symbolic references (Program.Refs), which only relocated instructions
// use. Each block's Insts is a capped window of the array (all[lo:hi:hi]),
// so a transform that appends to a block reallocates that block instead of
// overwriting its neighbour.
//
// Build decodes with one goroutine per CPU; BuildWorkers bounds them.
func Build(obj *objfile.Object, entry string) (*Program, error) {
	return BuildWorkers(obj, entry, 0)
}

// BuildWorkers is Build with the decode fanned out over at most workers
// goroutines; <= 0 means one per CPU, 1 a serial lift. The program is the
// same at every worker count.
func BuildWorkers(obj *objfile.Object, entry string, workers int) (*Program, error) {
	nWords := len(obj.Text)

	// Text symbols in word order; the stable sort keeps object order among
	// the symbols of one word, which decides the canonical label.
	type textSym struct {
		w    int
		name string
		kind objfile.SymKind
	}
	syms := make([]textSym, 0, len(obj.Symbols))
	for i := range obj.Symbols {
		s := &obj.Symbols[i]
		if s.Section != objfile.SecText {
			continue
		}
		if s.Offset%isa.WordSize != 0 {
			return nil, fmt.Errorf("cfg: misaligned text symbol %s at %#x", s.Name, s.Offset)
		}
		w := int(s.Offset / isa.WordSize)
		if w >= nWords {
			return nil, fmt.Errorf("cfg: text symbol beyond section end at word %d", w)
		}
		syms = append(syms, textSym{w, s.Name, s.Kind})
	}
	slices.SortStableFunc(syms, func(a, b textSym) int { return a.w - b.w })
	var funcs []int // indices into syms of the function symbols, in word order
	for i := range syms {
		if syms[i].kind != objfile.SymFunc {
			continue
		}
		if n := len(funcs); n > 0 && syms[funcs[n-1]].w == syms[i].w {
			return nil, fmt.Errorf("cfg: two functions at word %d (%s)", syms[i].w, syms[i].name)
		}
		funcs = append(funcs, i)
	}
	if len(funcs) == 0 || syms[funcs[0]].w != 0 {
		return nil, fmt.Errorf("cfg: text does not begin with a function symbol")
	}

	// Text relocations go into the side table in object order, and each
	// relocated word's record gets its kind and table index now; the
	// decode below fills in the words. Offsets come from outside, so words
	// past the end of text go to a side set that still rejects duplicates.
	all := make([]Inst, nWords)
	refs := make([]Ref, 0, len(obj.Relocs))
	var beyond map[int]bool
	for ri := range obj.Relocs {
		r := &obj.Relocs[ri]
		if r.Section != objfile.SecText {
			continue
		}
		if r.Offset%isa.WordSize != 0 {
			return nil, fmt.Errorf("cfg: misaligned text relocation at %#x", r.Offset)
		}
		w := int(r.Offset / isa.WordSize)
		var dup bool
		if w < nWords {
			dup = all[w].ref != 0
			var kind TargetKind
			switch r.Kind {
			case objfile.RelBrDisp21:
				kind = TargetBranch
			case objfile.RelHi16:
				kind = TargetHi16
			case objfile.RelLo16:
				kind = TargetLo16
			case objfile.RelWord32:
				return nil, fmt.Errorf("cfg: word32 relocation in text at word %d unsupported", w)
			default:
				return nil, fmt.Errorf("cfg: unknown relocation kind %d at word %d", r.Kind, w)
			}
			if !dup {
				refs = append(refs, Ref{Sym: r.Sym, Addend: r.Addend})
				all[w].ref = uint32(len(refs)-1)<<kindBits | uint32(kind)
			}
		} else {
			if beyond == nil {
				beyond = make(map[int]bool)
			}
			dup = beyond[w]
			beyond[w] = true
		}
		if dup {
			return nil, fmt.Errorf("cfg: two relocations for word %d", w)
		}
	}
	// Reject branch relocs with nonzero addends into code (never produced
	// by the assembler) or with data targets, wherever they point.
	symSection := make(map[string]objfile.Section, len(obj.Symbols))
	for i := range obj.Symbols {
		symSection[obj.Symbols[i].Name] = obj.Symbols[i].Section
	}
	for ri := range obj.Relocs {
		r := &obj.Relocs[ri]
		if r.Section != objfile.SecText || r.Kind != objfile.RelBrDisp21 {
			continue
		}
		w := int(r.Offset / isa.WordSize)
		if r.Addend != 0 {
			return nil, fmt.Errorf("cfg: branch relocation with addend at word %d", w)
		}
		if symSection[r.Sym] != objfile.SecText {
			return nil, fmt.Errorf("cfg: branch at word %d targets data symbol %q", w, r.Sym)
		}
	}

	// Leaders: function starts, every text symbol, instructions following
	// block-ending instructions. Each instruction keeps its canonical word
	// (the fields of its format; an OpReg word's should-be-zero bits are
	// dropped, as isa.Encode(isa.Decode(w)) would), and an illegal word
	// becomes a raw entry. The work is per word, so large texts are split
	// into chunks across CPUs; each chunk writes its own range of all and
	// leader[lo+1:hi+1].
	leader := make([]bool, nWords+1)
	for i := range syms {
		leader[syms[i].w] = true
	}
	err := parallel.ForEachChunk(nWords, workers, 16384, func(lo, hi int) error {
		for w := lo; w < hi; w++ {
			word := obj.Text[w]
			lay := isa.LayoutOf(word)
			ci := &all[w]
			if lay.Format == isa.FormatIllegal {
				if ci.ref != 0 {
					return fmt.Errorf("cfg: relocation on illegal word %d", w)
				}
				*ci = RawWord(word)
			} else {
				ci.Word = word & lay.Cover
			}
			if endsBlock(word) {
				leader[w+1] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	nBlocks := 0
	for _, l := range leader[:nWords] {
		if l {
			nBlocks++
		}
	}

	// Canonical label per leader word: prefer the function symbol, then the
	// first label symbol, else a synthetic name. alias maps every text
	// symbol to its canonical label.
	alias := make(map[string]string, len(syms))

	// Build functions and blocks, each kind in one backing array.
	p := &Program{
		Funcs:       make([]*Func, len(funcs)),
		Data:        append([]byte(nil), obj.Data...),
		Entry:       entry,
		DataSymbols: filterSymbols(obj.Symbols, objfile.SecData),
		Refs:        refs,
	}
	funcArr := make([]Func, len(funcs))
	blockArr := make([]Block, nBlocks)
	blockPtrs := make([]*Block, nBlocks)
	nb, si := 0, 0
	for fi, fsym := range funcs {
		fw := syms[fsym].w
		endW := nWords
		if fi+1 < len(funcs) {
			endW = syms[funcs[fi+1]].w
		}
		f := &funcArr[fi]
		f.Name = syms[fsym].name
		first := nb
		for w := fw; w < endW; w++ {
			if !leader[w] {
				continue
			}
			lo := si
			for si < len(syms) && syms[si].w == w {
				si++
			}
			label := ""
			for _, ts := range syms[lo:si] {
				if ts.kind == objfile.SymFunc {
					label = ts.name
					break
				}
				if label == "" {
					label = ts.name
				}
			}
			if label == "" {
				label = f.Name + "$L" + strconv.Itoa(w-fw)
			}
			for _, ts := range syms[lo:si] {
				alias[ts.name] = label
			}
			blockArr[nb] = Block{Label: label, SrcWordOff: w}
			blockPtrs[nb] = &blockArr[nb]
			nb++
		}
		for k := first; k < nb; k++ {
			lo, hi := blockArr[k].SrcWordOff, endW
			if k+1 < nb {
				hi = blockArr[k+1].SrcWordOff
			}
			blockArr[k].Insts = all[lo:hi:hi]
		}
		f.Blocks = blockPtrs[first:nb:nb]
		p.Funcs[fi] = f
	}

	// Canonicalize all symbol references, set fallthroughs, and resolve
	// jump tables.
	canon := func(sym string) string {
		if c, ok := alias[sym]; ok {
			return c
		}
		return sym // data symbol
	}
	for i := range p.Refs {
		p.Refs[i].Sym = canon(p.Refs[i].Sym)
	}
	for _, f := range p.Funcs {
		for bi, b := range f.Blocks {
			if fallsThrough(b) {
				if bi+1 < len(f.Blocks) {
					b.FallsTo = f.Blocks[bi+1].Label
				} else {
					return nil, fmt.Errorf("cfg: control falls off the end of function %s", f.Name)
				}
			}
		}
	}
	p.DataRelocs = make([]objfile.Reloc, len(obj.Relocs))
	n := 0
	for _, r := range obj.Relocs {
		if r.Section == objfile.SecData {
			r.Sym = canon(r.Sym)
			p.DataRelocs[n] = r
			n++
		}
	}
	p.DataRelocs = p.DataRelocs[:n]

	if err := resolveJumpTables(p); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("cfg: lifted program invalid: %w", err)
	}
	return p, nil
}

func filterSymbols(syms []objfile.Symbol, sec objfile.Section) []objfile.Symbol {
	var out []objfile.Symbol
	for _, s := range syms {
		if s.Section == sec {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Offset < out[j].Offset })
	return out
}

// endsBlock reports whether control cannot fall to the next instruction or
// the instruction is a control transfer that defines a block boundary.
// Conditional branches end blocks (two successors) but can fall through.
func endsBlock(w uint32) bool {
	switch isa.FormatOfWord(w) {
	case isa.FormatBranch:
		return w>>26 != isa.OpBSR // calls continue the block
	case isa.FormatJump:
		return w>>14&3 != isa.JmpJSR
	case isa.FormatPal:
		fn := w & 0x03FFFFFF
		return fn == isa.SysHALT || fn == isa.SysLNGJMP
	case isa.FormatIllegal:
		return true
	}
	return false
}

// fallsThrough reports whether control can reach the instruction after the
// block's last instruction.
func fallsThrough(b *Block) bool {
	if len(b.Insts) == 0 {
		return true
	}
	last := b.Insts[len(b.Insts)-1]
	if last.Raw() {
		return false
	}
	switch last.Format() {
	case isa.FormatBranch:
		// Unconditional br never falls through; bsr and conditional
		// branches do.
		return last.Op() != isa.OpBR
	case isa.FormatJump:
		return last.JFunc() == isa.JmpJSR
	case isa.FormatPal:
		return last.Func() != isa.SysHALT && last.Func() != isa.SysLNGJMP
	}
	return true
}

// resolveJumpTables attaches a JumpTable to each block ending in an
// indirect jmp, when the table can be identified from relocations.
func resolveJumpTables(p *Program) error {
	// Index data relocations by offset and data symbols by name.
	relocAt := make(map[uint32]objfile.Reloc)
	for _, r := range p.DataRelocs {
		relocAt[r.Offset] = r
	}
	symOffset := make(map[string]uint32)
	offsets := make([]uint32, 0, len(p.DataSymbols))
	for _, s := range p.DataSymbols {
		symOffset[s.Name] = s.Offset
		offsets = append(offsets, s.Offset)
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })

	labels := make(map[string]bool, p.NumBlocks())
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			labels[b.Label] = true
		}
	}

	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if len(b.Insts) == 0 {
				continue
			}
			last := b.Insts[len(b.Insts)-1]
			if last.Raw() || last.Format() != isa.FormatJump || last.JFunc() != isa.JmpJMP {
				continue
			}
			// Find the nearest preceding la pair whose data symbol holds a
			// table of code addresses.
			for i := len(b.Insts) - 2; i >= 0; i-- {
				in := b.Insts[i]
				if in.Kind() != TargetLo16 {
					continue
				}
				sym := p.Target(in)
				base, ok := symOffset[sym]
				if !ok {
					continue
				}
				end := uint32(len(p.Data))
				idx := sort.Search(len(offsets), func(k int) bool { return offsets[k] > base })
				if idx < len(offsets) {
					end = offsets[idx]
				}
				var targets []string
				for off := base; off+4 <= end; off += 4 {
					r, ok := relocAt[off]
					if !ok || !labels[r.Sym] {
						break
					}
					targets = append(targets, r.Sym)
				}
				if len(targets) > 0 {
					b.JT = &JumpTable{Sym: sym, Targets: targets}
				}
				break
			}
		}
	}
	return nil
}

// AttachProfile sets Freq and Weight on every block from per-word execution
// counts gathered by running the image linked from the same object the
// program was built from. Freq is the maximum per-instruction count in the
// block (robust to mid-block reentry after longjmp); Weight is the total
// number of instruction executions the block contributed (paper, §5).
func (p *Program) AttachProfile(counts []uint64) error {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.SrcWordOff < 0 || b.SrcWordOff+len(b.Insts) > len(counts) {
				return fmt.Errorf("cfg: block %s [%d,%d) outside profile of %d words",
					b.Label, b.SrcWordOff, b.SrcWordOff+len(b.Insts), len(counts))
			}
			b.Freq, b.Weight = 0, 0
			for i := 0; i < len(b.Insts); i++ {
				c := counts[b.SrcWordOff+i]
				if c > b.Freq {
					b.Freq = c
				}
				b.Weight += c
			}
		}
	}
	return nil
}

// TotalWeight sums block weights: the total dynamic instruction count.
func (p *Program) TotalWeight() uint64 {
	var tot uint64
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			tot += b.Weight
		}
	}
	return tot
}
