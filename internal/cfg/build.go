package cfg

import (
	"cmp"
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
//
// The lift checks what Program.Validate checks of the program it makes as
// it makes it, so it never runs Validate: every label is unique (a
// synthetic one included), and every reference and the entry name a label
// or a data symbol. Names resolve through one table over obj.Symbols, so
// each symbol name is hashed once to build it and once per reference.
func BuildWorkers(obj *objfile.Object, entry string, workers int) (*Program, error) {
	nWords := len(obj.Text)
	st := newSymtab(obj.Symbols)

	// Text symbols in word order; the stable sort keeps object order among
	// the symbols of one word, which decides the canonical label.
	type textSym struct {
		w    int
		sym  int32 // index in obj.Symbols
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
		syms = append(syms, textSym{w, int32(i), s.Kind})
	}
	slices.SortStableFunc(syms, func(a, b textSym) int { return a.w - b.w })
	var funcs []int // indices into syms of the function symbols, in word order
	for i := range syms {
		if syms[i].kind != objfile.SymFunc {
			continue
		}
		if n := len(funcs); n > 0 && syms[funcs[n-1]].w == syms[i].w {
			return nil, fmt.Errorf("cfg: two functions at word %d (%s)", syms[i].w, st.syms[syms[i].sym].Name)
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
	// Each relocation's symbol is looked up once, here: refSym holds the
	// definition each table entry's name resolved to.
	all := make([]Inst, nWords)
	refs := make([]Ref, 0, len(obj.Relocs))
	refSym := make([]int32, 0, len(obj.Relocs))
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
		j := st.lookup(r.Sym)
		// Reject branch relocs with nonzero addends into code (never
		// produced by the assembler) or with data targets, wherever they
		// point.
		if r.Kind == objfile.RelBrDisp21 {
			if r.Addend != 0 {
				return nil, fmt.Errorf("cfg: branch relocation with addend at word %d", w)
			}
			if j >= 0 && st.syms[j].Section != objfile.SecText {
				return nil, fmt.Errorf("cfg: branch at word %d targets data symbol %q", w, r.Sym)
			}
		}
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
				refSym = append(refSym, j)
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

	// Build functions and blocks, each kind in one backing array. The
	// canonical label of a leader word is its function symbol, else its
	// first label symbol, else a synthetic name; every text symbol records
	// the block it starts.
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
	st.blocks = blockArr
	nb, si := 0, 0
	for fi, fsym := range funcs {
		fw := syms[fsym].w
		endW := nWords
		if fi+1 < len(funcs) {
			endW = syms[funcs[fi+1]].w
		}
		f := &funcArr[fi]
		f.Name = st.syms[syms[fsym].sym].Name
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
					label = st.syms[ts.sym].Name
					break
				}
				if label == "" {
					label = st.syms[ts.sym].Name
				}
			}
			if label == "" {
				label = f.Name + "$L" + strconv.Itoa(w-fw)
				st.synth = append(st.synth, int32(nb))
			}
			for _, ts := range syms[lo:si] {
				st.block[ts.sym] = int32(nb)
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
	if err := st.checkLabels(); err != nil {
		return nil, fmt.Errorf("cfg: lifted program invalid: %w", err)
	}

	// Canonicalize all symbol references, set fallthroughs, and resolve
	// jump tables. A reference to a text symbol names the block its symbol
	// starts; any other must name a data symbol or a synthetic label.
	for k := range p.Refs {
		if b := st.alias(refSym[k]); b >= 0 {
			p.Refs[k].Sym = blockArr[b].Label
		} else if st.defs(refSym[k]).data < 0 && st.synthetic(p.Refs[k].Sym) < 0 {
			return nil, fmt.Errorf("cfg: lifted program invalid: reference to undefined symbol %q", p.Refs[k].Sym)
		}
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
	relocBlock := make([]int32, len(obj.Relocs))
	n := 0
	for _, r := range obj.Relocs {
		if r.Section == objfile.SecData {
			b := st.alias(st.lookup(r.Sym))
			if b >= 0 {
				r.Sym = blockArr[b].Label
			}
			p.DataRelocs[n], relocBlock[n] = r, b
			n++
		}
	}
	p.DataRelocs = p.DataRelocs[:n]
	st.resolveJumpTables(p, relocBlock[:n])

	if entry != "" && st.labelBlock(st.lookup(entry), entry) < 0 {
		return nil, fmt.Errorf("cfg: lifted program invalid: entry %q not defined", entry)
	}
	return p, nil
}

// filterSymbols lists the symbols of section sec by offset; the stable sort
// keeps object order among symbols at one offset, so the list, and the
// symbol table Lower writes from it, does not depend on the sort algorithm.
func filterSymbols(syms []objfile.Symbol, sec objfile.Section) []objfile.Symbol {
	var out []objfile.Symbol
	for _, s := range syms {
		if s.Section == sec {
			out = append(out, s)
		}
	}
	slices.SortStableFunc(out, func(a, b objfile.Symbol) int { return cmp.Compare(a.Offset, b.Offset) })
	return out
}

// symtab resolves names against an object's symbols during the lift.
type symtab struct {
	syms []objfile.Symbol
	// last maps each name to its last definition in object order. prev
	// chains each definition to the previous one of its name (-1 for the
	// first), and multi holds, by last definition, what all of a name's
	// definitions say; both are nil when every name is defined once, as in
	// any object objfile.Link accepts.
	last  map[string]int32
	prev  []int32
	multi []nameDefs
	// block holds the block each text symbol starts, and blocks the
	// lifted blocks; synth lists the blocks given a synthetic label, and
	// synthNum indexes them by label once a lookup needs it.
	block    []int32
	blocks   []Block
	synth    []int32
	synthNum map[string]int32
}

// nameDefs is what a name's definitions say about it: the text definition
// latest in word order (object order breaking ties), the block the name
// labels, and the data definition with the highest offset, each -1 if none.
type nameDefs struct{ text, label, data int32 }

var noDefs = nameDefs{-1, -1, -1}

func newSymtab(syms []objfile.Symbol) *symtab {
	st := &symtab{
		syms:  syms,
		last:  make(map[string]int32, len(syms)),
		block: make([]int32, len(syms)),
	}
	for i := range syms {
		st.last[syms[i].Name] = int32(i)
	}
	if len(st.last) < len(syms) {
		// Some name is defined twice, which no object that links does.
		seen := make(map[string]int32, len(st.last))
		st.prev = make([]int32, len(syms))
		for i := range syms {
			j, ok := seen[syms[i].Name]
			if !ok {
				j = -1
			}
			st.prev[i] = j
			seen[syms[i].Name] = int32(i)
		}
	}
	return st
}

// lookup returns the last definition of name, or -1.
func (st *symtab) lookup(name string) int32 {
	if j, ok := st.last[name]; ok {
		return j
	}
	return -1
}

// add adds definition j to d, which holds only definitions after j in
// object order; it reports false when j labels a block other than the one
// d's name labels already.
func (st *symtab) add(d nameDefs, j int32) (nameDefs, bool) {
	s := &st.syms[j]
	switch s.Section {
	case objfile.SecText:
		// Of equal offsets, the later definition, added first, wins.
		if d.text < 0 || s.Offset > st.syms[d.text].Offset {
			d.text = j
		}
		if b := st.block[j]; st.blocks[b].Label == s.Name {
			if d.label >= 0 && d.label != b {
				return d, false
			}
			d.label = b
		}
	case objfile.SecData:
		if d.data < 0 || s.Offset > st.syms[d.data].Offset {
			d.data = j
		}
	}
	return d, true
}

// defs returns what the name whose last definition is j (or -1) is.
func (st *symtab) defs(j int32) nameDefs {
	switch {
	case j < 0:
		return noDefs
	case st.multi != nil:
		return st.multi[j]
	}
	d, _ := st.add(noDefs, j)
	return d
}

// alias returns the block whose label a reference to the name whose last
// definition is j becomes: the block its latest text definition starts,
// or -1 when no text symbol has the name.
func (st *symtab) alias(j int32) int32 {
	if t := st.defs(j).text; t >= 0 {
		return st.block[t]
	}
	return -1
}

// labelBlock returns the block labelled name, or -1; j is name's last
// definition, or -1.
func (st *symtab) labelBlock(j int32, name string) int32 {
	if b := st.defs(j).label; b >= 0 {
		return b
	}
	return st.synthetic(name)
}

// synthetic returns the block with synthetic label name, or -1. Only a
// reference to a name that no symbol defines gets here, so the index is
// made on first use.
func (st *symtab) synthetic(name string) int32 {
	if len(st.synth) == 0 {
		return -1
	}
	if st.synthNum == nil {
		st.synthNum = make(map[string]int32, len(st.synth))
		for _, b := range st.synth {
			st.synthNum[st.blocks[b].Label] = b
		}
	}
	if b, ok := st.synthNum[name]; ok {
		return b
	}
	return -1
}

// checkLabels rejects two blocks with one label: a name defined by two text
// symbols that each label their block, or a synthetic label that also
// labels a symbol's block. Two synthetic labels never collide, since their
// functions' names differ. It also sums up, once, the definitions of each
// name defined more than once, walking each name's chain from its last
// definition, so no lookup walks a chain: an object that repeats a name
// cannot make the lift quadratic.
func (st *symtab) checkLabels() error {
	if st.prev != nil {
		later := make([]bool, len(st.syms)) // a later definition has the name
		for _, j := range st.prev {
			if j >= 0 {
				later[j] = true
			}
		}
		st.multi = make([]nameDefs, len(st.syms))
		for i := range st.syms {
			if later[i] {
				continue
			}
			d := noDefs
			for j := int32(i); j >= 0; j = st.prev[j] {
				var ok bool
				if d, ok = st.add(d, j); !ok {
					return fmt.Errorf("cfg: duplicate label %s", st.syms[j].Name)
				}
			}
			st.multi[i] = d
		}
	}
	for _, b := range st.synth {
		if l := st.blocks[b].Label; st.defs(st.lookup(l)).label >= 0 {
			return fmt.Errorf("cfg: duplicate label %s", l)
		}
	}
	return nil
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
// indirect jmp, when the table can be identified from relocations: its
// data symbol's words, up to the next data symbol, are relocations to
// block labels. relocBlock holds, for each of p.DataRelocs, the block its
// symbol's text definition starts, or -1.
func (st *symtab) resolveJumpTables(p *Program, relocBlock []int32) {
	var byOff []int32 // p.DataRelocs by offset, object order breaking ties
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
				d := st.defs(st.lookup(sym)).data
				if d < 0 {
					continue
				}
				base := st.syms[d].Offset
				end := uint32(len(p.Data))
				ds := p.DataSymbols
				if k := sort.Search(len(ds), func(k int) bool { return ds[k].Offset > base }); k < len(ds) {
					end = ds[k].Offset
				}
				if byOff == nil {
					byOff = make([]int32, len(p.DataRelocs))
					for k := range byOff {
						byOff[k] = int32(k)
					}
					slices.SortStableFunc(byOff, func(a, b int32) int {
						return cmp.Compare(p.DataRelocs[a].Offset, p.DataRelocs[b].Offset)
					})
				}
				var targets []string
				for off := base; off+4 <= end; off += 4 {
					// The last relocation at off, as the linker applies it.
					k := sort.Search(len(byOff), func(k int) bool { return p.DataRelocs[byOff[k]].Offset > off }) - 1
					if k < 0 || p.DataRelocs[byOff[k]].Offset != off {
						break
					}
					r := byOff[k]
					if relocBlock[r] < 0 && st.synthetic(p.DataRelocs[r].Sym) < 0 {
						break
					}
					targets = append(targets, p.DataRelocs[r].Sym)
				}
				if len(targets) > 0 {
					b.JT = &JumpTable{Sym: sym, Targets: targets}
				}
				break
			}
		}
	}
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
