// Package objfile defines the EM32 object and executable formats and the
// linker that turns objects into runnable images.
//
// Following the paper's toolchain requirements, linked images *retain their
// relocation and symbol information*: the binary-rewriting stages (squeeze,
// squash) rely on relocations to distinguish code addresses from data, just
// as alto/squeeze require statically linked Alpha executables with
// relocations preserved (paper, §7 footnote 2).
package objfile

import (
	"fmt"

	"repro/internal/isa"
)

// Fixed memory layout of a linked image. The data segment base does not
// depend on the text size, so rewriting the text section never moves data.
const (
	TextBase uint32 = 0x1000   // first text address
	DataBase uint32 = 0x400000 // first data address (4 MiB)
	MemSize  uint32 = 0x800000 // total simulated memory (8 MiB)
	StackTop uint32 = MemSize - 16
)

// RelocKind classifies a relocation.
type RelocKind uint8

const (
	// RelBrDisp21 patches the 21-bit word displacement of a branch-format
	// instruction so that it reaches symbol+addend.
	RelBrDisp21 RelocKind = iota
	// RelHi16 patches the 16-bit displacement of an LDAH instruction with
	// the high half of symbol+addend (adjusted for the sign of the low half).
	RelHi16
	// RelLo16 patches the 16-bit displacement of a memory-format
	// instruction with the low half of symbol+addend.
	RelLo16
	// RelWord32 patches a full 32-bit word (usually in the data section:
	// jump tables and function pointers) with symbol+addend.
	RelWord32
)

var relocKindNames = [...]string{"brdisp21", "hi16", "lo16", "word32"}

func (k RelocKind) String() string {
	if int(k) < len(relocKindNames) {
		return relocKindNames[k]
	}
	return fmt.Sprintf("reloc(%d)", uint8(k))
}

// SymKind classifies a symbol.
type SymKind uint8

const (
	SymFunc   SymKind = iota // start of a function in the text section
	SymLabel                 // a code label inside a function
	SymObject                // a data-section object
)

var symKindNames = [...]string{"func", "label", "object"}

func (k SymKind) String() string {
	if int(k) < len(symKindNames) {
		return symKindNames[k]
	}
	return fmt.Sprintf("sym(%d)", uint8(k))
}

// Section identifies which section an offset refers to.
type Section uint8

const (
	SecText Section = iota
	SecData
)

// Symbol names a location in a section.
type Symbol struct {
	Name    string
	Section Section
	Offset  uint32 // byte offset within the section
	Kind    SymKind
}

// Reloc records that the field at Offset (byte offset within Section) must
// be patched with the address of Sym plus Addend.
type Reloc struct {
	Section Section
	Offset  uint32
	Kind    RelocKind
	Sym     string
	Addend  int32
}

// Object is a relocatable unit produced by the assembler or by the
// CFG-lowering stage of the rewriting tools.
type Object struct {
	Text    []uint32 // instruction words, displacement fields unresolved
	Data    []byte
	Symbols []Symbol
	Relocs  []Reloc
}

// Image is a linked executable: resolved code and data plus the retained
// symbol and relocation tables.
//
// Meta carries tool-specific metadata; squash stores its decompression
// runtime description there (region offset table, Huffman code tables,
// reserved-area addresses). In the paper's system this information is
// embedded in the binary as the decompressor's private data; here it rides
// in a tagged section so the simulator can install the runtime hook. Its
// contents are charged to the program footprint explicitly by the squash
// accounting (offset table, code tables), not by section size.
type Image struct {
	Text    []uint32
	Data    []byte
	Entry   uint32   // address of the first instruction to execute
	Symbols []Symbol // offsets relative to the owning section base
	Relocs  []Reloc  // offsets relative to the owning section base
	Meta    []byte
}

// SymAddr reports the absolute address of a symbol, or an error if the
// symbol is not defined.
func (im *Image) SymAddr(name string) (uint32, error) {
	for _, s := range im.Symbols {
		if s.Name == name {
			return s.Addr(), nil
		}
	}
	return 0, fmt.Errorf("objfile: undefined symbol %q", name)
}

// Addr reports the absolute address of the symbol in a linked image.
func (s Symbol) Addr() uint32 {
	if s.Section == SecText {
		return TextBase + s.Offset
	}
	return DataBase + s.Offset
}

// Link resolves one or more objects into an executable image. Text sections
// are concatenated in argument order starting at TextBase; data sections at
// DataBase. The entry point is the symbol named by entry (usually "main").
func Link(entry string, objs ...*Object) (*Image, error) {
	if len(objs) == 0 {
		return nil, fmt.Errorf("objfile: no objects to link")
	}
	im := &Image{}
	type base struct{ text, data uint32 }
	bases := make([]base, len(objs))
	for i, o := range objs {
		bases[i] = base{uint32(len(im.Text) * isa.WordSize), uint32(len(im.Data))}
		im.Text = append(im.Text, o.Text...)
		im.Data = append(im.Data, o.Data...)
	}

	// Build the global symbol table.
	addrOf := make(map[string]uint32, 64)
	for i, o := range objs {
		for _, s := range o.Symbols {
			adj := s
			if s.Section == SecText {
				adj.Offset += bases[i].text
			} else {
				adj.Offset += bases[i].data
			}
			if old, dup := addrOf[s.Name]; dup {
				return nil, fmt.Errorf("objfile: symbol %q defined twice (first at %#x)", s.Name, old)
			}
			addrOf[s.Name] = adj.Addr()
			im.Symbols = append(im.Symbols, adj)
		}
	}

	// Apply relocations.
	for i, o := range objs {
		for _, r := range o.Relocs {
			adj := r
			if r.Section == SecText {
				adj.Offset += bases[i].text
			} else {
				adj.Offset += bases[i].data
			}
			target, ok := addrOf[r.Sym]
			if !ok {
				return nil, fmt.Errorf("objfile: undefined symbol %q in relocation at %v+%#x", r.Sym, r.Section, adj.Offset)
			}
			if err := applyReloc(im, adj, target); err != nil {
				return nil, err
			}
			im.Relocs = append(im.Relocs, adj)
		}
	}

	entryAddr, ok := addrOf[entry]
	if !ok {
		return nil, fmt.Errorf("objfile: entry symbol %q not defined", entry)
	}
	im.Entry = entryAddr
	return im, nil
}

func applyReloc(im *Image, r Reloc, target uint32) error {
	v := int64(target) + int64(r.Addend)
	switch r.Kind {
	case RelBrDisp21:
		if r.Section != SecText || r.Offset%isa.WordSize != 0 {
			return fmt.Errorf("objfile: branch relocation at misaligned or non-text offset %#x", r.Offset)
		}
		idx := r.Offset / isa.WordSize
		pc := TextBase + r.Offset
		dispBytes := v - int64(pc) - isa.WordSize
		if dispBytes%isa.WordSize != 0 {
			return fmt.Errorf("objfile: branch target %#x misaligned", v)
		}
		disp := dispBytes / isa.WordSize
		if disp < -(1<<20) || disp >= 1<<20 {
			return fmt.Errorf("objfile: branch displacement %d to %q out of range", disp, r.Sym)
		}
		im.Text[idx] = im.Text[idx]&^uint32(0x1FFFFF) | uint32(disp)&0x1FFFFF
	case RelHi16, RelLo16:
		if r.Section != SecText || r.Offset%isa.WordSize != 0 {
			return fmt.Errorf("objfile: %v relocation at misaligned or non-text offset %#x", r.Kind, r.Offset)
		}
		idx := r.Offset / isa.WordSize
		lo := int16(v & 0xFFFF)
		var patch uint32
		if r.Kind == RelLo16 {
			patch = uint32(uint16(lo))
		} else {
			patch = uint32((v - int64(lo)) >> 16 & 0xFFFF)
		}
		im.Text[idx] = im.Text[idx]&^uint32(0xFFFF) | patch
	case RelWord32:
		switch r.Section {
		case SecData:
			if int(r.Offset)+4 > len(im.Data) {
				return fmt.Errorf("objfile: data relocation at %#x past end of section", r.Offset)
			}
			putWord(im.Data[r.Offset:], uint32(v))
		case SecText:
			im.Text[r.Offset/isa.WordSize] = uint32(v)
		}
	default:
		return fmt.Errorf("objfile: unknown relocation kind %v", r.Kind)
	}
	return nil
}

func putWord(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// Word reads the little-endian 32-bit word at byte offset off of b.
func Word(b []byte, off uint32) uint32 {
	return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
}
