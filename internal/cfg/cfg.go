// Package cfg provides the control-flow-graph program representation used
// by the binary-rewriting tools (squeeze and squash). A Program is lifted
// from a relocatable object — using the retained relocation information to
// distinguish code addresses from data, as the paper's infrastructure
// requires — transformed, and lowered back to an object for linking.
package cfg

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/objfile"
)

// TargetKind says how an instruction references a symbol, or that the
// entry is a literal word rather than an instruction.
type TargetKind uint8

const (
	// TargetNone: the instruction references no symbol.
	TargetNone TargetKind = iota
	// TargetBranch: branch-format displacement to a code label.
	TargetBranch
	// TargetHi16 / TargetLo16: address-materialization halves (la pairs).
	TargetHi16
	TargetLo16
	// TargetRaw: a literal text word (a stub tag or a reserved word), not
	// an instruction; it references nothing, and nothing falls through it.
	TargetRaw
)

// kindBits is the width of the kind in Inst's reference word.
const kindBits = 3

// Inst is one entry of a block: a 32-bit word and a reference word, 8
// bytes with no pointers. The reference word holds the Kind in its low
// three bits and, for a symbolic kind (TargetBranch, TargetHi16,
// TargetLo16), the index in the program's Refs of the symbol and addend
// above them. An instruction's Word is canonical — isa.Encode of its
// decoding — and a relocated field holds whatever the object held, which
// the linker or the squash encoder overwrites. A TargetRaw entry's Word is
// the literal word.
//
// The field accessors (Op, RA, Disp, …) shift and mask the word and give
// what isa.Decode would; on a raw entry they describe the literal word, so
// callers test Raw first. A transform that makes a new instruction builds
// an isa.Inst and stores isa.Encode of it.
type Inst struct {
	Word uint32
	ref  uint32
}

// Ref is a symbolic reference: the symbol and the addend the relocated
// field resolves to.
type Ref struct {
	Sym    string
	Addend int32
}

// RawWord builds a literal text word (not a real instruction).
func RawWord(v uint32) Inst { return Inst{Word: v, ref: uint32(TargetRaw)} }

// Kind reports how the entry references a symbol, or TargetRaw.
func (in Inst) Kind() TargetKind { return TargetKind(in.ref & (1<<kindBits - 1)) }

// Raw reports whether the entry is a literal word rather than an
// instruction.
func (in Inst) Raw() bool { return in.Kind() == TargetRaw }

// refIndex is the entry's index in Program.Refs; meaningful only for a
// symbolic kind.
func (in Inst) refIndex() uint32 { return in.ref >> kindBits }

// Format is the word's encoding format.
func (in Inst) Format() isa.Format { return isa.FormatOfWord(in.Word) }

// Op is the primary opcode.
func (in Inst) Op() uint32 { return in.Word >> 26 }

// RA is register field a, or 0 in the Pal and illegal formats.
func (in Inst) RA() uint32 {
	switch in.Format() {
	case isa.FormatPal, isa.FormatIllegal:
		return 0
	}
	return in.Word >> 21 & 31
}

// RB is register field b of the Mem, OpReg and Jump formats, else 0.
func (in Inst) RB() uint32 {
	switch in.Format() {
	case isa.FormatMem, isa.FormatOpReg, isa.FormatJump:
		return in.Word >> 16 & 31
	}
	return 0
}

// RC is the operate formats' destination register, else 0.
func (in Inst) RC() uint32 {
	switch in.Format() {
	case isa.FormatOpReg, isa.FormatOpLit:
		return in.Word & 31
	}
	return 0
}

// Disp is the sign-extended displacement of the Mem (bytes) and Branch
// (words) formats, else 0.
func (in Inst) Disp() int32 {
	switch in.Format() {
	case isa.FormatMem:
		return int32(int16(in.Word))
	case isa.FormatBranch:
		return int32(in.Word<<11) >> 11
	}
	return 0
}

// Lit is the OpLit format's 8-bit literal, else 0.
func (in Inst) Lit() uint32 {
	if in.Format() == isa.FormatOpLit {
		return in.Word >> 13 & 0xFF
	}
	return 0
}

// Func is the operate formats' 7-bit function code or the Pal format's
// 26-bit one, else 0.
func (in Inst) Func() uint32 {
	switch in.Format() {
	case isa.FormatPal:
		return in.Word & 0x03FFFFFF
	case isa.FormatOpReg, isa.FormatOpLit:
		return in.Word >> 5 & 0x7F
	}
	return 0
}

// JFunc is the Jump format's subcode, else 0.
func (in Inst) JFunc() uint32 {
	if in.Format() == isa.FormatJump {
		return in.Word >> 14 & 3
	}
	return 0
}

// JumpTable describes a resolved indirect jump through a table of code
// addresses in the data section.
type JumpTable struct {
	Sym     string   // data symbol at which the table starts
	Targets []string // block labels, in table order
}

// Block is a basic block.
type Block struct {
	Label string // program-unique
	Insts []Inst

	// FallsTo names the successor reached by falling off the end of the
	// block; empty when the last instruction transfers control
	// unconditionally (br, jmp, ret, halt, longjmp, illegal).
	FallsTo string

	// JT is attached to a block ending in an indirect jmp whose table was
	// discovered via relocations; nil means the jump's targets are unknown.
	JT *JumpTable

	// SrcWordOff is the block's first-instruction word offset in the object
	// the program was built from (provenance for profile attachment).
	SrcWordOff int

	// Freq and Weight are filled by profile attachment: Freq is the
	// execution count of the block, Weight is the total instructions the
	// block contributed at runtime (paper, §5).
	Freq   uint64
	Weight uint64
}

// NumInsts reports the block size in instructions.
func (b *Block) NumInsts() int { return len(b.Insts) }

// Func is a function: a named sequence of basic blocks. Blocks[0] is the
// entry block and its label equals the function name.
type Func struct {
	Name   string
	Blocks []*Block
}

// Program is the whole-program IR.
type Program struct {
	Funcs []*Func
	Data  []byte
	// DataSymbols and DataRelocs describe the data section symbolically so
	// that rewriting stages can retarget code addresses stored in data
	// (jump tables, function pointers).
	DataSymbols []objfile.Symbol
	DataRelocs  []objfile.Reloc
	Entry       string
	// Refs is the side table of the instructions' symbolic references,
	// indexed by Inst's reference word. Only relocated instructions have
	// an entry; instructions copied within the program share theirs, and
	// an entry outlives the instructions a transform deletes, so a pass
	// that renames a symbol everywhere may walk Refs instead of every
	// instruction.
	Refs []Ref
}

// Refer makes an instruction with word w that references sym+addend in
// the given symbolic kind, adding the reference to p.Refs.
func (p *Program) Refer(w uint32, kind TargetKind, sym string, addend int32) Inst {
	if kind == TargetNone || kind == TargetRaw {
		panic(fmt.Sprintf("cfg: Refer with non-symbolic kind %d", kind))
	}
	p.Refs = append(p.Refs, Ref{Sym: sym, Addend: addend})
	return Inst{Word: w, ref: uint32(len(p.Refs)-1)<<kindBits | uint32(kind)}
}

// RefOf returns in's symbolic reference, or the zero Ref when in has none.
func (p *Program) RefOf(in Inst) Ref {
	switch in.Kind() {
	case TargetNone, TargetRaw:
		return Ref{}
	}
	return p.Refs[in.refIndex()]
}

// Target returns the symbol in references, or "" when it has none.
func (p *Program) Target(in Inst) string { return p.RefOf(in).Sym }

// FuncByName returns the named function, or nil.
func (p *Program) FuncByName(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// BlockByLabel returns the block with the given label, or nil.
func (p *Program) BlockByLabel(label string) *Block {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.Label == label {
				return b
			}
		}
	}
	return nil
}

// NumInsts reports the total instruction count over all blocks.
func (p *Program) NumInsts() int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Insts)
		}
	}
	return n
}

// NumBlocks reports the total block count over all functions.
func (p *Program) NumBlocks() int {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Blocks)
	}
	return n
}

// Succs reports the labels of b's intra-procedural control-flow successors.
// The second result is false when the block ends in an indirect jump whose
// targets could not be resolved (no jump table found), meaning the true
// successor set is unknown.
func (p *Program) Succs(b *Block) ([]string, bool) { return p.appendSuccs(nil, b) }

// appendSuccs is Succs appending to dst.
func (p *Program) appendSuccs(dst []string, b *Block) ([]string, bool) {
	out := dst
	known := true
	br, jmp := exits(b)
	switch {
	case br.Kind() == TargetBranch:
		out = append(out, p.Target(br))
	case jmp && b.JT != nil:
		out = append(out, b.JT.Targets...)
	case jmp:
		known = false
	}
	if b.FallsTo != "" {
		out = append(out, b.FallsTo)
	}
	return out, known
}

// exits reports how b's last instruction leaves b other than by falling
// through: br is that instruction when it is a branch other than a call
// (its reference, if any, names the successor), else the zero Inst, and
// jmp reports an indirect jmp. A jsr or ret adds no intra-procedural
// successor, and a raw word (a sentinel or tag) never falls through.
func exits(b *Block) (br Inst, jmp bool) {
	if len(b.Insts) == 0 {
		return Inst{}, false
	}
	last := b.Insts[len(b.Insts)-1]
	switch {
	case last.Raw():
	case last.Format() == isa.FormatBranch:
		if last.Op() != isa.OpBSR {
			return last, false
		}
	case last.Format() == isa.FormatJump:
		return Inst{}, last.JFunc() == isa.JmpJMP
	}
	return Inst{}, false
}

// CallSite is a function call within a block.
type CallSite struct {
	InstIdx  int
	Callee   string // callee symbol; empty for unresolved indirect calls
	Indirect bool
	// ref is 1 + the index in Program.Refs of the reference naming the
	// callee (the bsr's, or the lda of the la before a jsr), or 0.
	ref uint32
}

// Calls reports the call sites in b: every bsr, and every jsr. A jsr
// immediately preceded by `la pv, f` within the block is resolved to f.
func (p *Program) Calls(b *Block) []CallSite { return p.appendCalls(nil, b) }

// appendCalls is Calls appending to dst.
func (p *Program) appendCalls(dst []CallSite, b *Block) []CallSite {
	for i, in := range b.Insts {
		if mayCall(in) {
			if cs, ok := p.callAt(b, i, in); ok {
				dst = append(dst, cs)
			}
		}
	}
	return dst
}

// mayCall is callAt's inline prefilter: only a bsr or a jump-format word
// can be a call.
func mayCall(in Inst) bool {
	op := in.Op()
	return op == isa.OpBSR || op == isa.OpJump || op == isa.OpJSRX
}

// callAt reports the call site that in, instruction i of b, makes, if it
// is a bsr or a jsr.
func (p *Program) callAt(b *Block, i int, in Inst) (CallSite, bool) {
	if in.Raw() {
		return CallSite{}, false
	}
	switch in.Format() {
	case isa.FormatBranch:
		if in.Op() == isa.OpBSR {
			cs := CallSite{InstIdx: i}
			if in.Kind() == TargetBranch {
				cs.Callee, cs.ref = p.Target(in), in.refIndex()+1
			}
			return cs, true
		}
	case isa.FormatJump:
		if in.JFunc() == isa.JmpJSR {
			cs := CallSite{InstIdx: i, Indirect: true}
			if lo, ok := p.laBefore(b, i, in.RB()); ok {
				cs.Callee, cs.ref = p.Target(lo), lo.refIndex()+1
			}
			return cs, true
		}
	}
	return CallSite{}, false
}

// laBefore scans b backwards from instruction idx for the la pair that
// most recently loaded register reg, returning its lda.
func (p *Program) laBefore(b *Block, idx int, reg uint32) (Inst, bool) {
	for i := idx - 1; i > 0; i-- {
		lo, hi := b.Insts[i], b.Insts[i-1]
		if lo.Kind() == TargetLo16 && lo.RA() == reg &&
			hi.Kind() == TargetHi16 && hi.RA() == reg && p.Target(hi) == p.Target(lo) {
			return lo, true
		}
		// A later write to reg invalidates earlier definitions.
		if WritesReg(lo, reg) {
			return Inst{}, false
		}
	}
	return Inst{}, false
}

// CallsSetjmp reports whether any block of f performs the setjmp system
// call; such functions are never compressed (paper, §2.2).
func (f *Func) CallsSetjmp() bool {
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			if !in.Raw() && in.Format() == isa.FormatPal && in.Func() == isa.SysSETJMP {
				return true
			}
		}
	}
	return false
}

// Validate checks structural invariants: unique labels, entry block naming,
// resolvable branch targets and fallthroughs. Build and NewIndex check the
// same of the programs they lift and index, so squash never runs it.
func (p *Program) Validate() error {
	labels := make(map[string]bool, p.NumBlocks())
	for _, f := range p.Funcs {
		if len(f.Blocks) == 0 {
			return fmt.Errorf("cfg: function %s has no blocks", f.Name)
		}
		if f.Blocks[0].Label != f.Name {
			return fmt.Errorf("cfg: function %s entry block labelled %s", f.Name, f.Blocks[0].Label)
		}
		for _, b := range f.Blocks {
			if labels[b.Label] {
				return fmt.Errorf("cfg: duplicate label %s", b.Label)
			}
			labels[b.Label] = true
		}
	}
	dataSyms := make(map[string]bool, len(p.DataSymbols))
	for _, s := range p.DataSymbols {
		dataSyms[s.Name] = true
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				switch in.Kind() {
				case TargetNone, TargetRaw:
					continue
				}
				if sym := p.Target(in); !labels[sym] && !dataSyms[sym] {
					return fmt.Errorf("cfg: block %s references undefined symbol %q", b.Label, sym)
				}
			}
			if b.FallsTo != "" && !labels[b.FallsTo] {
				return fmt.Errorf("cfg: block %s falls through to undefined label %q", b.Label, b.FallsTo)
			}
		}
	}
	if p.Entry != "" && !labels[p.Entry] {
		return fmt.Errorf("cfg: entry %q not defined", p.Entry)
	}
	return nil
}
