package cfg

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/objfile"
	"repro/internal/vm"
)

const switchProgram = `
        .text
        .func main
        lda  sp, -16(sp)
        stw  ra, 0(sp)
loop:   sys  getc
        blt  v0, done
        sub  v0, 48, t0
        cmpult t0, 3, t1
        beq  t1, bad
        sll  t0, 2, t1
        la   t2, table
        add  t2, t1, t2
        ldw  t3, 0(t2)
        jmp  (t3)
case0:  li   a0, 122
        br   out
case1:  li   a0, 111
        br   out
case2:  bsr  ra, helper
        mov  v0, a0
        br   out
bad:    li   a0, 63
out:    sys  putc
        br   loop
done:   ldw  ra, 0(sp)
        lda  sp, 16(sp)
        clr  a0
        sys  halt
        .func helper
        li   v0, 116
        ret
        .func unused
        nop
        ret
        .data
table:  .word case0, case1, case2
after:  .word 7
`

func buildProgram(t *testing.T, src string) *Program {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	p, err := Build(obj, "main")
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuildStructure(t *testing.T) {
	p := buildProgram(t, switchProgram)
	if len(p.Funcs) != 3 {
		t.Fatalf("got %d funcs, want 3", len(p.Funcs))
	}
	main := p.FuncByName("main")
	if main == nil {
		t.Fatal("main not found")
	}
	// Blocks: main, loop, (after blt), (after beq), case0, case1, case2,
	// (after bsr? no - bsr does not end a block), bad, out, done.
	labels := map[string]*Block{}
	for _, b := range main.Blocks {
		labels[b.Label] = b
	}
	for _, want := range []string{"main", "loop", "case0", "case1", "case2", "bad", "out", "done"} {
		if labels[want] == nil {
			t.Errorf("missing block %q", want)
		}
	}
	// The jmp block has a resolved jump table.
	var jtBlock *Block
	for _, b := range main.Blocks {
		if b.JT != nil {
			jtBlock = b
		}
	}
	if jtBlock == nil {
		t.Fatal("jump table not resolved")
	}
	if len(jtBlock.JT.Targets) != 3 || jtBlock.JT.Targets[0] != "case0" || jtBlock.JT.Targets[2] != "case2" {
		t.Fatalf("jump table targets = %v", jtBlock.JT.Targets)
	}
	if jtBlock.JT.Sym != "table" {
		t.Fatalf("jump table sym = %q", jtBlock.JT.Sym)
	}

	// case2 contains a call to helper.
	calls := p.Calls(labels["case2"])
	if len(calls) != 1 || calls[0].Callee != "helper" || calls[0].Indirect {
		t.Fatalf("case2 calls = %+v", calls)
	}

	// Fallthroughs: loop block (ends in blt) falls through.
	if labels["loop"].FallsTo == "" {
		t.Error("loop should fall through")
	}
	// case0 ends with br: no fallthrough.
	if labels["case0"].FallsTo != "" {
		t.Errorf("case0 falls to %q, want none", labels["case0"].FallsTo)
	}
}

func TestSuccs(t *testing.T) {
	p := buildProgram(t, switchProgram)
	main := p.FuncByName("main")
	byLabel := map[string]*Block{}
	for _, b := range main.Blocks {
		byLabel[b.Label] = b
	}
	succs, known := p.Succs(byLabel["case0"])
	if !known || len(succs) != 1 || succs[0] != "out" {
		t.Errorf("case0 succs = %v (known=%v)", succs, known)
	}
	var jtBlock *Block
	for _, b := range main.Blocks {
		if b.JT != nil {
			jtBlock = b
		}
	}
	succs, known = p.Succs(jtBlock)
	if !known || len(succs) != 3 {
		t.Errorf("jump block succs = %v (known=%v)", succs, known)
	}
}

func TestRoundTripBehaviour(t *testing.T) {
	src := switchProgram
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	im1, err := objfile.Link("main", obj)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(obj, "main")
	if err != nil {
		t.Fatal(err)
	}
	im2, err := LowerAndLink(p)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("0123210xy9")
	m1 := vm.New(im1, input)
	m2 := vm.New(im2, input)
	if err := m1.Run(); err != nil {
		t.Fatalf("original: %v", err)
	}
	if err := m2.Run(); err != nil {
		t.Fatalf("round-tripped: %v", err)
	}
	if string(m1.Output) != string(m2.Output) || m1.Status != m2.Status {
		t.Fatalf("behaviour differs: %q/%d vs %q/%d", m1.Output, m1.Status, m2.Output, m2.Status)
	}
	if string(m1.Output) != "zot?toz???" {
		t.Fatalf("output = %q", m1.Output)
	}
}

func TestLowerInsertsFallthroughBranch(t *testing.T) {
	p := buildProgram(t, `
        .text
        .func main
        beq v0, target
mid:    nop
target: clr a0
        sys halt
`)
	// Remove the mid block to force an explicit branch from main to target.
	main := p.FuncByName("main")
	main.Blocks[0].FallsTo = "target"
	var kept []*Block
	for _, b := range main.Blocks {
		if b.Label != "mid" {
			kept = append(kept, b)
		}
	}
	// Move target after another synthetic block so fallthrough is broken.
	main.Blocks = kept
	im, err := LowerAndLink(p)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(im, nil)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Status != 0 {
		t.Fatalf("status = %d", m.Status)
	}
}

func TestAttachProfile(t *testing.T) {
	src := `
        .text
        .func main
loop:   sys  getc
        blt  v0, done
        mov  v0, a0
        sys  putc
        br   loop
done:   clr  a0
        sys  halt
`
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(im, []byte("abc"))
	m.EnableProfile()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	p, err := Build(obj, "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachProfile(m.Profile); err != nil {
		t.Fatal(err)
	}
	main := p.FuncByName("main")
	var loop, done *Block
	for _, b := range main.Blocks {
		switch b.Label {
		case "loop", "main":
			loop = b
		case "done":
			done = b
		}
	}
	if loop.Freq != 4 { // 3 chars + EOF pass
		t.Errorf("loop freq = %d, want 4", loop.Freq)
	}
	if done.Freq != 1 {
		t.Errorf("done freq = %d, want 1", done.Freq)
	}
	if p.TotalWeight() != m.Instructions {
		t.Errorf("TotalWeight = %d, machine executed %d", p.TotalWeight(), m.Instructions)
	}
}

func TestCallsSetjmp(t *testing.T) {
	p := buildProgram(t, `
        .text
        .func main
        sys  setjmp
        clr  a0
        sys  halt
        .func other
        ret
`)
	if !p.FuncByName("main").CallsSetjmp() {
		t.Error("main should be detected as calling setjmp")
	}
	if p.FuncByName("other").CallsSetjmp() {
		t.Error("other does not call setjmp")
	}
}

func TestIndirectCallResolution(t *testing.T) {
	p := buildProgram(t, `
        .text
        .func main
        la   pv, helper
        jsr  ra, (pv)
        clr  a0
        sys  halt
        .func helper
        ret
`)
	calls := p.Calls(p.FuncByName("main").Blocks[0])
	if len(calls) != 1 || !calls[0].Indirect || calls[0].Callee != "helper" {
		t.Fatalf("calls = %+v", calls)
	}
}

func TestValidateCatchesBadTarget(t *testing.T) {
	p := buildProgram(t, `
        .text
        .func main
        clr a0
        sys halt
`)
	in := &p.Funcs[0].Blocks[0].Insts[0]
	*in = p.Refer(in.Word, TargetBranch, "nowhere", 0)
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted undefined target")
	}
}

func TestBuildRejectsFallOffFunction(t *testing.T) {
	obj, err := asm.Assemble(`
        .text
        .func main
        nop
        .func next
        sys halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(obj, "main"); err == nil {
		t.Fatal("Build accepted control falling off function end")
	}
}
