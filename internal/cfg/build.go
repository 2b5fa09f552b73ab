package cfg

import (
	"fmt"
	"sort"

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
func Build(obj *objfile.Object, entry string) (*Program, error) {
	nWords := len(obj.Text)

	// Canonicalize symbols: group text symbols by word offset.
	type textSym struct {
		name string
		kind objfile.SymKind
	}
	textSymsAt := make(map[int][]textSym)
	var funcOffsets []int
	funcName := make(map[int]string)
	for _, s := range obj.Symbols {
		if s.Section != objfile.SecText {
			continue
		}
		if s.Offset%isa.WordSize != 0 {
			return nil, fmt.Errorf("cfg: misaligned text symbol %s at %#x", s.Name, s.Offset)
		}
		w := int(s.Offset) / isa.WordSize
		textSymsAt[w] = append(textSymsAt[w], textSym{s.Name, s.Kind})
		if s.Kind == objfile.SymFunc {
			if _, dup := funcName[w]; dup {
				return nil, fmt.Errorf("cfg: two functions at word %d (%s)", w, s.Name)
			}
			funcName[w] = s.Name
			funcOffsets = append(funcOffsets, w)
		}
	}
	sort.Ints(funcOffsets)
	if len(funcOffsets) == 0 || funcOffsets[0] != 0 {
		return nil, fmt.Errorf("cfg: text does not begin with a function symbol")
	}

	// Text relocations by word offset.
	textRelocAt := make(map[int]objfile.Reloc)
	for _, r := range obj.Relocs {
		if r.Section != objfile.SecText {
			continue
		}
		if r.Offset%isa.WordSize != 0 {
			return nil, fmt.Errorf("cfg: misaligned text relocation at %#x", r.Offset)
		}
		w := int(r.Offset) / isa.WordSize
		if _, dup := textRelocAt[w]; dup {
			return nil, fmt.Errorf("cfg: two relocations for word %d", w)
		}
		textRelocAt[w] = r
	}

	// Decode all instructions. Decoding is per word, so large texts are
	// split into chunks across CPUs; each chunk writes its own slice range,
	// and small inputs stay on the fast inline path.
	insts := make([]isa.Inst, nWords)
	_ = parallel.ForEachChunk(nWords, 0, 16384, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			insts[i] = isa.Decode(obj.Text[i])
		}
		return nil
	})

	// Leaders: function starts, every text symbol, instructions following
	// block-ending instructions.
	leader := make([]bool, nWords+1)
	for w := range textSymsAt {
		if w >= nWords {
			return nil, fmt.Errorf("cfg: text symbol beyond section end at word %d", w)
		}
		leader[w] = true
	}
	for i, in := range insts {
		if endsBlock(in) && i+1 <= nWords {
			leader[i+1] = true
		}
	}
	// Branch targets: symbolic; the target symbol's block is already a
	// leader because all text symbols are leaders. Reject branch relocs
	// with nonzero addends into code (never produced by the assembler).
	symSection := make(map[string]objfile.Section)
	for _, s := range obj.Symbols {
		symSection[s.Name] = s.Section
	}
	for w, r := range textRelocAt {
		if r.Kind == objfile.RelBrDisp21 {
			if r.Addend != 0 {
				return nil, fmt.Errorf("cfg: branch relocation with addend at word %d", w)
			}
			if symSection[r.Sym] != objfile.SecText {
				return nil, fmt.Errorf("cfg: branch at word %d targets data symbol %q", w, r.Sym)
			}
		}
	}

	// Canonical label per leader word: prefer the function symbol, then the
	// first label symbol, else a synthetic name (assigned per function
	// below). alias maps every text symbol to its canonical label.
	alias := make(map[string]string)

	// Build functions and blocks.
	p := &Program{
		Data:        append([]byte(nil), obj.Data...),
		Entry:       entry,
		DataSymbols: filterSymbols(obj.Symbols, objfile.SecData),
	}
	for fi, fw := range funcOffsets {
		endW := nWords
		if fi+1 < len(funcOffsets) {
			endW = funcOffsets[fi+1]
		}
		f := &Func{Name: funcName[fw]}
		var cur *Block
		for w := fw; w < endW; w++ {
			if leader[w] || cur == nil {
				label := ""
				for _, ts := range textSymsAt[w] {
					if ts.kind == objfile.SymFunc {
						label = ts.name
						break
					}
					if label == "" {
						label = ts.name
					}
				}
				if label == "" {
					label = fmt.Sprintf("%s$L%d", f.Name, w-fw)
				}
				for _, ts := range textSymsAt[w] {
					alias[ts.name] = label
				}
				cur = &Block{Label: label, SrcWordOff: w}
				f.Blocks = append(f.Blocks, cur)
			}
			ci := Inst{Inst: insts[w]}
			if insts[w].Format == isa.FormatIllegal {
				ci = RawWord(obj.Text[w])
			}
			if r, ok := textRelocAt[w]; ok {
				switch r.Kind {
				case objfile.RelBrDisp21:
					ci.Kind = TargetBranch
				case objfile.RelHi16:
					ci.Kind = TargetHi16
				case objfile.RelLo16:
					ci.Kind = TargetLo16
				case objfile.RelWord32:
					return nil, fmt.Errorf("cfg: word32 relocation in text at word %d unsupported", w)
				}
				ci.Target = r.Sym
				ci.Addend = r.Addend
			}
			cur.Insts = append(cur.Insts, ci)
			if endsBlock(insts[w]) {
				cur = nil
			}
		}
		if len(f.Blocks) == 0 {
			return nil, fmt.Errorf("cfg: function %s is empty", f.Name)
		}
		p.Funcs = append(p.Funcs, f)
	}

	// Canonicalize all symbol references, set fallthroughs, and resolve
	// jump tables.
	canon := func(sym string) string {
		if c, ok := alias[sym]; ok {
			return c
		}
		return sym // data symbol
	}
	for _, f := range p.Funcs {
		for bi, b := range f.Blocks {
			for i := range b.Insts {
				if b.Insts[i].Kind != TargetNone {
					b.Insts[i].Target = canon(b.Insts[i].Target)
				}
			}
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
func endsBlock(in isa.Inst) bool {
	switch in.Format {
	case isa.FormatBranch:
		return in.Op != isa.OpBSR // calls continue the block
	case isa.FormatJump:
		return in.JFunc != isa.JmpJSR
	case isa.FormatPal:
		return in.Func == isa.SysHALT || in.Func == isa.SysLNGJMP
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
	last := &b.Insts[len(b.Insts)-1]
	if last.Raw {
		return false
	}
	switch last.Format {
	case isa.FormatBranch:
		// Unconditional br never falls through; bsr and conditional
		// branches do.
		return last.Op != isa.OpBR
	case isa.FormatJump:
		return last.JFunc == isa.JmpJSR
	case isa.FormatPal:
		return last.Func != isa.SysHALT && last.Func != isa.SysLNGJMP
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

	labels := map[string]bool{}
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
			last := &b.Insts[len(b.Insts)-1]
			if last.Raw || last.Format != isa.FormatJump || last.JFunc != isa.JmpJMP {
				continue
			}
			// Find the nearest preceding la pair whose data symbol holds a
			// table of code addresses.
			for i := len(b.Insts) - 2; i >= 0; i-- {
				in := &b.Insts[i]
				if in.Kind != TargetLo16 {
					continue
				}
				base, ok := symOffset[in.Target]
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
					b.JT = &JumpTable{Sym: in.Target, Targets: targets}
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
