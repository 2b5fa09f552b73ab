package cfg

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/objfile"
)

// Lower converts a Program back into a relocatable object. Block order
// within a function and function order within the program are preserved.
// When a block's fallthrough successor is no longer the next block in
// layout (because intervening blocks were removed or moved), an explicit
// unconditional branch is inserted to preserve semantics.
//
// The returned object carries full symbol and relocation information, so
// the result can be lifted again by Build; Lower∘Build is semantics-
// preserving and Build∘Lower is the identity on canonical programs.
//
// Lower does not validate p. The object's symbols are p's data symbols, in
// order, then one per block in function and layout order, so a duplicate
// label becomes a symbol defined twice, and a reference or fallthrough to
// an undefined label a relocation against an undefined symbol: objfile.Link
// rejects both, and an undefined entry.
func Lower(p *Program) (*objfile.Object, error) {
	obj := &objfile.Object{
		Data: append([]byte(nil), p.Data...),
	}
	for _, s := range p.DataSymbols {
		obj.Symbols = append(obj.Symbols, s)
	}
	for _, r := range p.DataRelocs {
		obj.Relocs = append(obj.Relocs, r)
	}

	here := func() uint32 { return uint32(len(obj.Text) * isa.WordSize) }
	emitReloc := func(kind objfile.RelocKind, sym string, addend int32) {
		obj.Relocs = append(obj.Relocs, objfile.Reloc{
			Section: objfile.SecText, Offset: here(), Kind: kind, Sym: sym, Addend: addend,
		})
	}

	for _, f := range p.Funcs {
		for bi, b := range f.Blocks {
			kind := objfile.SymLabel
			if bi == 0 {
				kind = objfile.SymFunc
			}
			obj.Symbols = append(obj.Symbols, objfile.Symbol{
				Name: b.Label, Section: objfile.SecText, Offset: here(), Kind: kind,
			})
			for _, in := range b.Insts {
				// Words are copied as they are; the linker patches the
				// displacement or immediate bits of relocated ones.
				r := p.RefOf(in)
				switch in.Kind() {
				case TargetBranch:
					emitReloc(objfile.RelBrDisp21, r.Sym, r.Addend)
				case TargetHi16:
					emitReloc(objfile.RelHi16, r.Sym, r.Addend)
				case TargetLo16:
					emitReloc(objfile.RelLo16, r.Sym, r.Addend)
				}
				obj.Text = append(obj.Text, in.Word)
			}
			if b.FallsTo != "" {
				next := ""
				if bi+1 < len(f.Blocks) {
					next = f.Blocks[bi+1].Label
				}
				if next != b.FallsTo {
					emitReloc(objfile.RelBrDisp21, b.FallsTo, 0)
					obj.Text = append(obj.Text, isa.Encode(isa.Br(isa.OpBR, isa.RegZero, 0)))
				}
			}
		}
	}
	if len(obj.Text) == 0 {
		return nil, fmt.Errorf("cfg: lowering produced empty text")
	}
	return obj, nil
}

// LowerAndLink lowers the program and links it into an executable image.
func LowerAndLink(p *Program) (*objfile.Image, error) {
	obj, err := Lower(p)
	if err != nil {
		return nil, err
	}
	return objfile.Link(p.Entry, obj)
}
