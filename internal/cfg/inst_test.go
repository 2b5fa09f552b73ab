package cfg_test

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/mediabench"
)

// accessorFields reads every field of in that has an accessor, laid out as
// isa.Decode lays out a decoded instruction. No pass reads a jump hint, so
// it has no accessor; decoded compares Decode's fields with the hint
// cleared.
func accessorFields(in cfg.Inst) isa.Inst {
	return isa.Inst{
		Op: in.Op(), Format: in.Format(),
		RA: in.RA(), RB: in.RB(), RC: in.RC(), Disp: in.Disp(),
		Lit: in.Lit(), Func: in.Func(), JFunc: in.JFunc(),
	}
}

// decoded is isa.Decode(w) without the jump hint.
func decoded(w uint32) isa.Inst {
	d := isa.Decode(w)
	d.Hint = 0
	return d
}

// TestInstAccessorsMatchDecode: for every word of the 11 MediaBench objects
// as Build lifts it, and for random words of every opcode with the literal
// flag clear and set, the accessors give isa.Decode's fields. A lifted
// instruction's word is the canonical isa.Encode(isa.Decode(w)), and an
// illegal word is lifted as a raw entry holding w.
func TestInstAccessorsMatchDecode(t *testing.T) {
	for _, spec := range mediabench.Specs() {
		obj := assemble(t, spec.Generate())
		p, err := cfg.Build(obj, "main")
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		n := 0
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				for i, in := range b.Insts {
					w := obj.Text[b.SrcWordOff+i]
					n++
					want := decoded(w)
					if in.Raw() {
						if want.Format != isa.FormatIllegal || in.Word != w {
							t.Fatalf("%s word %#08x: raw entry %#08x", spec.Name, w, in.Word)
						}
						continue
					}
					if canon := isa.Encode(isa.Decode(w)); in.Word != canon {
						t.Fatalf("%s word %#08x: lifted as %#08x, want %#08x", spec.Name, w, in.Word, canon)
					}
					if got := accessorFields(in); got != want {
						t.Fatalf("%s word %#08x: accessors %+v, Decode %+v", spec.Name, w, got, want)
					}
				}
			}
		}
		if n != len(obj.Text) {
			t.Fatalf("%s: lifted %d words of %d", spec.Name, n, len(obj.Text))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for op := uint32(0); op < 64; op++ {
		for k := 0; k < 256; k++ {
			w := op<<26 | rng.Uint32()&(1<<26-1)
			if k&1 == 0 {
				w &^= 1 << 12
			} else {
				w |= 1 << 12
			}
			if got, want := accessorFields(cfg.Inst{Word: w}), decoded(w); got != want {
				t.Fatalf("word %#08x: accessors %+v, Decode %+v", w, got, want)
			}
		}
	}
}

// TestTouchesRegMatchesReadsWrites: TouchesReg is ReadsReg || WritesReg
// for random words of every opcode and every register, raw entries
// included.
func TestTouchesRegMatchesReadsWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for op := uint32(0); op < 64; op++ {
		for k := 0; k < 512; k++ {
			w := op<<26 | rng.Uint32()&(1<<26-1)
			if op == isa.OpPal {
				w = rng.Uint32() & 7 // the system calls and a few unknown codes
			}
			for _, in := range []cfg.Inst{{Word: w}, cfg.RawWord(w)} {
				for reg := uint32(0); reg < isa.NumRegs; reg++ {
					want := cfg.ReadsReg(in, reg) || cfg.WritesReg(in, reg)
					if got := cfg.TouchesReg(in, reg); got != want {
						t.Fatalf("word %#08x raw=%v reg %d: TouchesReg %v, want %v", w, in.Raw(), reg, got, want)
					}
				}
			}
		}
	}
}

// TestInstSize: the lift allocates one cfg.Inst per text word, so the
// record stays at most 16 bytes (8 today) and holds no pointers, which
// spares the garbage collector from scanning the array.
func TestInstSize(t *testing.T) {
	if got := unsafe.Sizeof(cfg.Inst{}); got > 16 {
		t.Errorf("cfg.Inst is %d bytes, want at most 16", got)
	}
	typ := reflect.TypeOf(cfg.Inst{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		default:
			t.Errorf("cfg.Inst field %s is a %v, want a fixed-size integer", f.Name, f.Type)
		}
	}
}
