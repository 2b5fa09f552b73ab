package asm

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/objfile"
)

func mustAssemble(t *testing.T, src string) *objfile.Object {
	t.Helper()
	obj, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return obj
}

func TestAssembleBasicInstructions(t *testing.T) {
	obj := mustAssemble(t, `
        .text
        .func main
        lda  sp, -32(sp)
        stw  ra, 0(sp)
        ldw  a0, 4(sp)
        ldb  t0, 0(a0)
        stb  t0, 1(a0)
        add  a0, a1, v0
        sub  v0, 8, v0
        and  t0, t1, t2
        sll  t0, 2, t1
        mul  t0, t1, t2
        mov  a0, s0
        clr  t3
        nop
        ret
        sys  halt
`)
	want := []isa.Inst{
		isa.Mem(isa.OpLDA, isa.RegSP, isa.RegSP, -32),
		isa.Mem(isa.OpSTW, isa.RegRA, isa.RegSP, 0),
		isa.Mem(isa.OpLDW, isa.RegA0, isa.RegSP, 4),
		isa.Mem(isa.OpLDB, isa.RegT0, isa.RegA0, 0),
		isa.Mem(isa.OpSTB, isa.RegT0, isa.RegA0, 1),
		isa.OpR(isa.OpIntA, isa.RegA0, isa.RegA1, isa.FnADD, isa.RegV0),
		isa.OpL(isa.OpIntA, isa.RegV0, 8, isa.FnSUB, isa.RegV0),
		isa.OpR(isa.OpIntL, isa.RegT0, 2, isa.FnAND, 3),
		isa.OpL(isa.OpIntS, isa.RegT0, 2, isa.FnSLL, 2),
		isa.OpR(isa.OpIntM, isa.RegT0, 2, isa.FnMUL, 3),
		isa.OpR(isa.OpIntL, isa.RegA0, isa.RegA0, isa.FnBIS, isa.RegS0),
		isa.OpR(isa.OpIntL, isa.RegZero, isa.RegZero, isa.FnBIS, 4),
		isa.Nop(),
		isa.Jump(isa.JmpRET, isa.RegZero, isa.RegRA, 0),
		isa.Sys(isa.SysHALT),
	}
	if len(obj.Text) != len(want) {
		t.Fatalf("assembled %d instructions, want %d", len(obj.Text), len(want))
	}
	for i, w := range want {
		if got := isa.Decode(obj.Text[i]); got != w {
			t.Errorf("inst %d: got %v, want %v", i, got, w)
		}
	}
	if len(obj.Symbols) != 1 || obj.Symbols[0].Name != "main" || obj.Symbols[0].Kind != objfile.SymFunc {
		t.Errorf("symbols = %+v, want single func main", obj.Symbols)
	}
}

func TestAssembleBranchesAndRelocs(t *testing.T) {
	obj := mustAssemble(t, `
        .text
        .func main
loop:   beq  v0, done
        bsr  ra, helper
        br   loop
done:   sys  halt
        .func helper
        la   a0, buf
        ret
        .data
buf:    .word 1, 2, main
`)
	// Relocations: beq→done, bsr→helper, br→loop, la (hi16+lo16)→buf,
	// .word main.
	var kinds []objfile.RelocKind
	for _, r := range obj.Relocs {
		kinds = append(kinds, r.Kind)
	}
	wantKinds := []objfile.RelocKind{
		objfile.RelBrDisp21, objfile.RelBrDisp21, objfile.RelBrDisp21,
		objfile.RelHi16, objfile.RelLo16,
		objfile.RelWord32,
	}
	if len(kinds) != len(wantKinds) {
		t.Fatalf("got %d relocs (%v), want %d", len(kinds), kinds, len(wantKinds))
	}
	for i := range kinds {
		if kinds[i] != wantKinds[i] {
			t.Errorf("reloc %d kind = %v, want %v", i, kinds[i], wantKinds[i])
		}
	}
	// The data word reloc points at offset 8 in .data.
	last := obj.Relocs[len(obj.Relocs)-1]
	if last.Section != objfile.SecData || last.Offset != 8 || last.Sym != "main" {
		t.Errorf("data reloc = %+v", last)
	}
}

func TestAssembleLinkResolvesBranches(t *testing.T) {
	obj := mustAssemble(t, `
        .text
        .func main
        br   skip
        nop
        nop
skip:   sys  halt
`)
	im, err := objfile.Link("main", obj)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	br := isa.Decode(im.Text[0])
	if br.Op != isa.OpBR || br.Disp != 2 {
		t.Fatalf("resolved branch = %v, want disp 2", br)
	}
	if im.Entry != objfile.TextBase {
		t.Errorf("entry = %#x", im.Entry)
	}
}

func TestAssembleLi(t *testing.T) {
	cases := []struct {
		src  string
		want []isa.Inst
	}{
		{"li t0, 100", []isa.Inst{isa.Mem(isa.OpLDA, isa.RegT0, isa.RegZero, 100)}},
		{"li t0, -5", []isa.Inst{isa.Mem(isa.OpLDA, isa.RegT0, isa.RegZero, -5)}},
		{"li t0, 0x12340000", []isa.Inst{isa.Mem(isa.OpLDAH, isa.RegT0, isa.RegZero, 0x1234)}},
		{"li t0, 0x12345678", []isa.Inst{
			isa.Mem(isa.OpLDAH, isa.RegT0, isa.RegZero, 0x1234),
			isa.Mem(isa.OpLDA, isa.RegT0, isa.RegT0, 0x5678),
		}},
		// Low half with sign bit set requires a high-half correction.
		{"li t0, 0x1234FFFF", []isa.Inst{
			isa.Mem(isa.OpLDAH, isa.RegT0, isa.RegZero, 0x1235),
			isa.Mem(isa.OpLDA, isa.RegT0, isa.RegT0, -1),
		}},
	}
	for _, c := range cases {
		obj := mustAssemble(t, ".text\n.func f\n"+c.src+"\n")
		if len(obj.Text) != len(c.want) {
			t.Errorf("%s: %d instructions, want %d", c.src, len(obj.Text), len(c.want))
			continue
		}
		for i, w := range c.want {
			if got := isa.Decode(obj.Text[i]); got != w {
				t.Errorf("%s inst %d: got %v, want %v", c.src, i, got, w)
			}
		}
	}
}

func TestAssembleDataDirectives(t *testing.T) {
	obj := mustAssemble(t, `
        .data
a:      .byte 1, 2, 3
        .align 4
b:      .word 0x01020304
s:      .ascii "hi\n"
        .space 2
`)
	want := []byte{1, 2, 3, 0, 4, 3, 2, 1, 'h', 'i', '\n', 0, 0}
	if string(obj.Data) != string(want) {
		t.Fatalf("data = %v, want %v", obj.Data, want)
	}
	names := map[string]uint32{}
	for _, s := range obj.Symbols {
		names[s.Name] = s.Offset
	}
	if names["a"] != 0 || names["b"] != 4 || names["s"] != 8 {
		t.Errorf("symbol offsets = %v", names)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2",             // unknown mnemonic
		".text\nadd r1, r2",        // missing operand
		".text\nldw r0, 99999(r1)", // displacement out of range
		".text\nadd r1, 300, r2",   // literal out of range
		".data\nadd r1, r2, r3",    // instruction outside .text
		".text\n.word xx yy",       // malformed word operand
		".data\n.ascii hello",      // missing quotes
		".text\nli r1",             // missing immediate
		".text\nbr r0, r1, r2",     // too many operands
		".text\nlda r0, 1(r77)",    // bad register
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

func TestAssembleCommentsAndLabels(t *testing.T) {
	obj := mustAssemble(t, `
; full-line comment
        .text
        .func main      ; trailing comment
x: y:   nop             # hash comment
        .data
msg:    .ascii "semi;colon"  ; comment after string
`)
	if len(obj.Text) != 1 {
		t.Fatalf("text length %d, want 1", len(obj.Text))
	}
	if got := string(obj.Data); got != "semi;colon" {
		t.Fatalf("data %q", got)
	}
	var names []string
	for _, s := range obj.Symbols {
		names = append(names, s.Name)
	}
	if strings.Join(names, ",") != "main,x,y,msg" {
		t.Fatalf("symbols = %v", names)
	}
}

func TestJumpForms(t *testing.T) {
	obj := mustAssemble(t, `
        .text
        .func f
        jmp  (t0)
        jsr  ra, (pv)
        jsr  (pv)
        retreg zero, (ra)
`)
	want := []isa.Inst{
		isa.Jump(isa.JmpJMP, isa.RegZero, isa.RegT0, 0),
		isa.Jump(isa.JmpJSR, isa.RegRA, isa.RegPV, 0),
		isa.Jump(isa.JmpJSR, isa.RegRA, isa.RegPV, 0),
		isa.Jump(isa.JmpRET, isa.RegZero, isa.RegRA, 0),
	}
	for i, w := range want {
		if got := isa.Decode(obj.Text[i]); got != w {
			t.Errorf("inst %d: got %v, want %v", i, got, w)
		}
	}
}

// TestRejectsDuplicateLabels: a symbol defined twice, as two labels, a
// label and a .func, or in text and data, is an error that names the
// line of the second definition and the line of the first.
func TestRejectsDuplicateLabels(t *testing.T) {
	for _, c := range []struct {
		name, src, want string
	}{
		{"two labels", ".text\nx: nop\nx: nop\n", "line 3: symbol x already defined on line 2"},
		{"two labels on one line", ".text\nx: x: nop\n", "line 2: symbol x already defined on line 2"},
		{"func and label", ".text\n.func f\nnop\nf: nop\n", "line 4: symbol f already defined on line 2"},
		{"text and data", ".text\ntbl: nop\n.data\ntbl: .word 1\n", "line 4: symbol tbl already defined on line 2"},
	} {
		_, err := Assemble(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Assemble error %v, want %q", c.name, err, c.want)
		}
	}
	if _, err := Assemble(".text\nx: nop\ny: nop\n"); err != nil {
		t.Errorf("distinct labels: %v", err)
	}
}
