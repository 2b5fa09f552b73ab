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

// TargetKind says how an instruction references a symbol.
type TargetKind uint8

const (
	// TargetNone: the instruction references no symbol.
	TargetNone TargetKind = iota
	// TargetBranch: branch-format displacement to a code label.
	TargetBranch
	// TargetHi16 / TargetLo16: address-materialization halves (la pairs).
	TargetHi16
	TargetLo16
)

// Inst is one instruction plus its symbolic reference, if any. Raw entries
// carry a literal word (used for stub tag words and reserved regions).
type Inst struct {
	isa.Inst
	Kind   TargetKind
	Target string // symbol name for Kind != TargetNone
	Addend int32  // added to the symbol address (branch targets into tables)

	Raw    bool // emit RawVal verbatim instead of encoding Inst
	RawVal uint32
}

// RawWord builds a literal text word (not a real instruction).
func RawWord(v uint32) Inst { return Inst{Raw: true, RawVal: v} }

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
}

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
func (b *Block) Succs() ([]string, bool) { return b.appendSuccs(nil) }

// appendSuccs is Succs appending to dst.
func (b *Block) appendSuccs(dst []string) ([]string, bool) {
	out := dst
	known := true
	if n := len(b.Insts); n > 0 {
		last := &b.Insts[n-1]
		switch {
		case last.Raw:
			// Raw words (sentinels, tags) never fall through.
		case last.Format == isa.FormatBranch:
			if last.Kind == TargetBranch && last.Op != isa.OpBSR {
				out = append(out, last.Target)
			}
		case last.Format == isa.FormatJump:
			if last.JFunc == isa.JmpJMP {
				if b.JT != nil {
					out = append(out, b.JT.Targets...)
				} else {
					known = false
				}
			}
			// ret and jsr add no intra-procedural successors here (a jsr
			// mid-block would not terminate the block anyway).
		}
	}
	if b.FallsTo != "" {
		out = append(out, b.FallsTo)
	}
	return out, known
}

// CallSite is a function call within a block.
type CallSite struct {
	InstIdx  int
	Callee   string // callee symbol; empty for unresolved indirect calls
	Indirect bool
}

// Calls reports the call sites in b: every bsr, and every jsr. A jsr
// immediately preceded by `la pv, f` within the block is resolved to f.
func (b *Block) Calls() []CallSite { return b.appendCalls(nil) }

// appendCalls is Calls appending to dst.
func (b *Block) appendCalls(dst []CallSite) []CallSite {
	out := dst
	for i := range b.Insts {
		in := &b.Insts[i]
		if in.Raw {
			continue
		}
		switch {
		case in.Format == isa.FormatBranch && in.Op == isa.OpBSR:
			out = append(out, CallSite{InstIdx: i, Callee: in.Target})
		case in.Format == isa.FormatJump && in.JFunc == isa.JmpJSR:
			cs := CallSite{InstIdx: i, Indirect: true}
			if sym, ok := b.laTargetBefore(i, in.RB); ok {
				cs.Callee = sym
			}
			out = append(out, cs)
		}
	}
	return out
}

// laTargetBefore scans backwards from instruction idx for the la pair that
// most recently loaded register reg, returning its symbol.
func (b *Block) laTargetBefore(idx int, reg uint32) (string, bool) {
	for i := idx - 1; i > 0; i-- {
		lo := &b.Insts[i]
		hi := &b.Insts[i-1]
		if lo.Kind == TargetLo16 && lo.RA == reg &&
			hi.Kind == TargetHi16 && hi.RA == reg && hi.Target == lo.Target {
			return lo.Target, true
		}
		// A later write to reg invalidates earlier definitions.
		if WritesReg(lo, reg) {
			return "", false
		}
	}
	return "", false
}

// CallsSetjmp reports whether any block of f performs the setjmp system
// call; such functions are never compressed (paper, §2.2).
func (f *Func) CallsSetjmp() bool {
	for _, b := range f.Blocks {
		for i := range b.Insts {
			if in := &b.Insts[i]; !in.Raw && in.Format == isa.FormatPal && in.Func == isa.SysSETJMP {
				return true
			}
		}
	}
	return false
}

// Validate checks structural invariants: unique labels, entry block naming,
// resolvable branch targets and fallthroughs.
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
			for i := range b.Insts {
				in := &b.Insts[i]
				if in.Kind == TargetNone {
					continue
				}
				if !labels[in.Target] && !dataSyms[in.Target] {
					return fmt.Errorf("cfg: block %s references undefined symbol %q", b.Label, in.Target)
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
