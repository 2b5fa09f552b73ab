package isa

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTripFixed(t *testing.T) {
	cases := []Inst{
		Mem(OpLDW, RegV0, RegSP, 16),
		Mem(OpSTW, RegRA, RegSP, -4),
		Mem(OpLDA, RegSP, RegSP, -64),
		Mem(OpLDAH, RegGP, RegZero, 0x12),
		Mem(OpLDB, RegT0, RegA0, 255),
		Mem(OpSTB, RegT0, RegA1, -128),
		Br(OpBR, RegZero, -1),
		Br(OpBSR, RegRA, 1024),
		Br(OpBEQ, RegV0, -(1 << 20)),
		Br(OpBGE, RegS0, 1<<20-1),
		OpR(OpIntA, RegA0, RegA1, FnADD, RegV0),
		OpR(OpIntA, RegA0, RegA1, FnCMPLE, RegT0),
		OpL(OpIntA, RegA0, 255, FnSUB, RegV0),
		OpL(OpIntL, RegA0, 0, FnXOR, RegT0),
		OpR(OpIntS, RegA0, RegA1, FnSLL, RegT0),
		OpR(OpIntM, RegA0, RegA1, FnMULH, RegT0),
		Jump(JmpJMP, RegZero, RegPV, 0),
		Jump(JmpJSR, RegRA, RegPV, 0x3FFF),
		Jump(JmpRET, RegZero, RegRA, 1),
		Sys(SysHALT),
		Sys(SysGETC),
		Nop(),
	}
	for _, in := range cases {
		w := Encode(in)
		got := Decode(w)
		if got != in {
			t.Errorf("round trip failed for %v:\n encoded %#08x\n decoded %v", in, w, got)
		}
	}
}

func TestDecodeSentinel(t *testing.T) {
	in := Decode(Sentinel)
	if in.Format != FormatIllegal {
		t.Fatalf("sentinel decoded to format %v, want FormatIllegal", in.Format)
	}
	if in.Op != OpIllegal {
		t.Fatalf("sentinel opcode = %#x, want %#x", in.Op, OpIllegal)
	}
}

func TestEncodePanicsOnOutOfRange(t *testing.T) {
	cases := []Inst{
		Mem(OpLDW, 32, RegSP, 0),          // register out of range
		Mem(OpLDW, RegV0, RegSP, 1<<15),   // displacement overflow
		Br(OpBR, RegZero, 1<<20),          // branch displacement overflow
		OpL(OpIntA, RegA0, 256, FnADD, 0), // literal overflow
		Jump(4, RegRA, RegPV, 0),          // jfunc out of range
	}
	for i, in := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: Encode(%v) did not panic", i, in)
				}
			}()
			Encode(in)
		}()
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		for _, in := range RandInsts(seed, 64) {
			if Decode(Encode(in)) != in {
				t.Logf("failed on %v", in)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFieldsRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		for _, in := range RandInsts(seed, 64) {
			fv := Fields(in)
			back := FromFields(fv)
			if back != in {
				t.Logf("fields round trip failed: %v -> %v -> %v", in, fv, back)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFieldsOpcodeFirstAndStreamsInRange(t *testing.T) {
	for _, in := range RandInsts(7, 500) {
		fv := Fields(in)
		if fv[0].Kind != StreamOpcode {
			t.Fatalf("first field of %v is %v, want opcode", in, fv[0].Kind)
		}
		for _, f := range fv {
			if f.Kind >= NumStreams {
				t.Fatalf("field kind %v out of range for %v", f.Kind, in)
			}
		}
	}
}

func TestFifteenStreams(t *testing.T) {
	if NumStreams != 15 {
		t.Fatalf("EM32 defines %d streams; the paper's platform uses 15", NumStreams)
	}
}

func TestIsNop(t *testing.T) {
	if !IsNop(Nop()) {
		t.Error("canonical nop not recognized")
	}
	if IsNop(OpR(OpIntA, RegA0, RegA1, FnADD, RegV0)) {
		t.Error("add with live destination misclassified as nop")
	}
	if !IsNop(OpR(OpIntA, RegA0, RegA1, FnADD, RegZero)) {
		t.Error("operate writing r31 should be a nop")
	}
	if IsNop(Mem(OpSTW, RegZero, RegSP, 0)) {
		t.Error("store misclassified as nop")
	}
	if !IsNop(Mem(OpLDW, RegZero, RegSP, 0)) {
		t.Error("load into r31 should be a nop")
	}
	if IsNop(Br(OpBSR, RegRA, 0)) {
		t.Error("bsr with zero displacement still links; not a nop")
	}
	if !IsNop(Br(OpBEQ, RegV0, 0)) {
		t.Error("conditional branch to fall-through should be a nop")
	}
}

func TestDisasmStable(t *testing.T) {
	cases := map[string]Inst{
		"ldw r0, 16(r30)":  Mem(OpLDW, 0, 30, 16),
		"stb r1, -3(r17)":  Mem(OpSTB, 1, 17, -3),
		"br r31, .+5":      Br(OpBR, 31, 5),
		"add r16, r17, r0": OpR(OpIntA, 16, 17, FnADD, 0),
		"sub r16, 8, r0":   OpL(OpIntA, 16, 8, FnSUB, 0),
		"ret r31, (r26)":   Jump(JmpRET, 31, 26, 0),
		"jsr r26, (r27)":   Jump(JmpJSR, 26, 27, 0),
		"sys halt":         Sys(SysHALT),
		"nop":              Nop(),
		"bis r16, r17, r0": OpR(OpIntL, 16, 17, FnBIS, 0),
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String(%v) = %q, want %q", in, got, want)
		}
	}
	// Absolute form.
	if got := Disasm(Br(OpBSR, 26, 3), 0x1000); got != "bsr r26, 0x1010" {
		t.Errorf("Disasm absolute = %q", got)
	}
}

// TestWordSplitMatchesFields is the oracle for the word layouts the region
// coders split and join words with. For every opcode (the virtual BSRX and
// JSRX included) and random operand bits: Canonical(w) agrees with
// Encode(Decode(w)) == w; a canonical word's layout split equals
// AppendFields(Decode(w)) pair for pair and ORs back to w; a non-canonical
// one has bits outside its layout's Cover. The layout a decoder picks from
// the opcode alone starts with the same fields as the word's own.
func TestWordSplitMatchesFields(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	seen := map[uint32]int{}
	check := func(w uint32) {
		t.Helper()
		canon := Encode(Decode(w)) == w
		if Canonical(w) != canon {
			t.Fatalf("%#08x: Canonical %v, Encode(Decode(w)) == w %v", w, Canonical(w), canon)
		}
		lay := LayoutOf(w)
		if !canon {
			if w&^lay.Cover == 0 {
				t.Fatalf("%#08x: not canonical, yet its layout covers it", w)
			}
			return
		}
		seen[w>>26]++
		split := []FieldValue{{StreamOpcode, w >> 26}}
		join := w >> 26 << 26
		for _, r := range lay.Fields {
			v := w >> r.Shift & (1<<r.Bits - 1)
			split = append(split, FieldValue{r.Kind, v})
			join |= v << r.Shift
		}
		if want := AppendFields(nil, Decode(w)); !reflect.DeepEqual(split, want) {
			t.Fatalf("%#08x: layout split %v, AppendFields(Decode(w)) %v", w, split, want)
		}
		if w != Sentinel && join != w {
			t.Fatalf("%#08x: fields join back to %#08x", w, join)
		}
		byOp := LayoutOf(w >> 26 << 26).Fields
		if n := min(len(byOp), 2); !reflect.DeepEqual(byOp[:n], lay.Fields[:n]) {
			t.Fatalf("%#08x: opcode-only layout starts %v, word layout %v", w, byOp[:n], lay.Fields[:n])
		}
		if FormatOf(w>>26) != FormatOpReg && !reflect.DeepEqual(byOp, lay.Fields) {
			t.Fatalf("%#08x: opcode-only layout %v, word layout %v", w, byOp, lay.Fields)
		}
	}
	check(Sentinel)
	for op := uint32(0); op < 64; op++ {
		for i := 0; i < 2000; i++ {
			low := rng.Uint32() & (1<<26 - 1)
			if i&1 == 0 {
				low &^= 7 << 13 // sbz clear: operate-register words canonical
			}
			check(op<<26 | low)
		}
	}
	for _, op := range []uint32{OpBSRX, OpJSRX, OpPal, OpLDW, OpBR, OpIntA, OpJump} {
		if seen[op] == 0 {
			t.Errorf("no canonical word with opcode %#x was checked", op)
		}
	}
}
