package unswitch

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/vm"
)

const switchSrc = `
        .text
        .func main
loop:   sys  getc
        blt  v0, done
        sub  v0, 48, t0
        cmpult t0, 4, t1
        beq  t1, bad
        sll  t0, 2, t1
        la   t2, table
        add  t2, t1, t2
        ldw  t3, 0(t2)
        jmp  (t3)
case0:  li   a0, 97
        br   out
case1:  li   a0, 98
        br   out
case2:  li   a0, 99
        br   out
case3:  li   a0, 100
        br   out
bad:    li   a0, 63
out:    sys  putc
        br   loop
done:   clr  a0
        sys  halt
        .data
before: .word 111
table:  .word case0, case1, case2, case3
after:  .word 222
`

func runSrcProgram(t *testing.T, p *cfg.Program, input string) string {
	t.Helper()
	im, err := cfg.LowerAndLink(p)
	if err != nil {
		t.Fatalf("LowerAndLink: %v", err)
	}
	m := vm.New(im, []byte(input))
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return string(m.Output)
}

func build(t *testing.T, src string) *cfg.Program {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(obj, "main")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// run unswitches p and checks that the rewritten program is valid, which
// Run leaves to the cfg.NewIndex of whoever consumes it.
func run(t *testing.T, p *cfg.Program, shouldUnswitch func(*cfg.Block) bool) *Stats {
	t.Helper()
	st, err := Run(p, shouldUnswitch)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("unswitched program invalid: %v", err)
	}
	return st
}

func TestUnswitchPreservesBehaviour(t *testing.T) {
	input := "0123x32109"
	want := runSrcProgram(t, build(t, switchSrc), input)

	p := build(t, switchSrc)
	st := run(t, p, nil)
	if st.Unswitched != 1 {
		t.Fatalf("Unswitched = %d, want 1", st.Unswitched)
	}
	got := runSrcProgram(t, p, input)
	if got != want {
		t.Fatalf("output changed: %q vs %q", got, want)
	}
	if want != "abcd?dcba?" {
		t.Fatalf("baseline output = %q", want)
	}
}

func TestUnswitchRemovesJumpAndTable(t *testing.T) {
	p := build(t, switchSrc)
	dataBefore := len(p.Data)
	st := run(t, p, nil)
	if st.TableBytesReclaimed != 16 {
		t.Errorf("TableBytesReclaimed = %d, want 16", st.TableBytesReclaimed)
	}
	if len(p.Data) != dataBefore-16 {
		t.Errorf("data size %d, want %d", len(p.Data), dataBefore-16)
	}
	// No indirect jumps or jump tables remain.
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.JT != nil {
				t.Errorf("block %s still has a jump table", b.Label)
			}
		}
	}
	// Surrounding data symbols survive with shifted offsets.
	names := map[string]uint32{}
	for _, s := range p.DataSymbols {
		names[s.Name] = s.Offset
	}
	if _, ok := names["table"]; ok {
		t.Error("table symbol survived")
	}
	if names["after"] != names["before"]+4 {
		t.Errorf("after at %d, before at %d", names["after"], names["before"])
	}
	// Ladder blocks exist.
	found := false
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if strings.Contains(b.Label, "$usw") {
				found = true
			}
		}
	}
	if !found {
		t.Error("no ladder blocks created")
	}
}

func TestUnswitchRespectsPredicate(t *testing.T) {
	p := build(t, switchSrc)
	st := run(t, p, func(b *cfg.Block) bool { return false })
	if st.Unswitched != 0 || st.Skipped != 1 {
		t.Fatalf("stats = %+v, want skip", st)
	}
}

func TestUnswitchDataAccessStillWorks(t *testing.T) {
	// The "after" word moves down by 16 bytes; a program reading it via la
	// must still see 222.
	src := switchSrc + `
`
	p := build(t, src)
	// Patch main to read "after" and print its low byte at exit... easier:
	// verify via a separate program exercising data after unswitch.
	run(t, p, nil)
	src2 := `
        .text
        .func main
        sys  getc
        sub  v0, 48, t0
        cmpult t0, 2, t1
        beq  t1, bad
        sll  t0, 2, t1
        la   t2, table
        add  t2, t1, t2
        ldw  t3, 0(t2)
        jmp  (t3)
case0:  li   a0, 48
        br   out
case1:  li   a0, 49
        br   out
bad:    li   a0, 63
out:    sys  putc
        la   t4, marker
        ldw  a0, 0(t4)
        sys  putc
        clr  a0
        sys  halt
        .data
table:  .word case0, case1
marker: .word 77            ; 'M'
`
	p2 := build(t, src2)
	want := runSrcProgram(t, build(t, src2), "1")
	run(t, p2, nil)
	got := runSrcProgram(t, p2, "1")
	if got != want || got != "1M" {
		t.Fatalf("data access broken after table reclaim: %q vs %q", got, want)
	}
}

func TestSingleEntryTable(t *testing.T) {
	src := `
        .text
        .func main
        sys  getc
        clr  t0
        sll  t0, 2, t1
        la   t2, table
        add  t2, t1, t2
        ldw  t3, 0(t2)
        jmp  (t3)
only:   li   a0, 89
        sys  putc
        clr  a0
        sys  halt
        .data
table:  .word only
`
	p := build(t, src)
	st := run(t, p, nil)
	if st.Unswitched != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := runSrcProgram(t, p, "x"); got != "Y" {
		t.Fatalf("output = %q", got)
	}
}

// sharedTableSrc dispatches through one table from two blocks.
const sharedTableSrc = `
        .text
        .func main
loop:   sys  getc
        blt  v0, done
        sub  v0, 48, t0
        cmpult t0, 2, t1
        beq  t1, second
disp1:  sll  t0, 2, t1
        la   t2, table
        add  t2, t1, t2
        ldw  t3, 0(t2)
        jmp  (t3)
second: sub  v0, 50, t0
        cmpult t0, 2, t1
        beq  t1, bad
disp2:  sll  t0, 2, t1
        la   t2, table
        add  t2, t1, t2
        ldw  t3, 0(t2)
        jmp  (t3)
case0:  li   a0, 97
        br   out
case1:  li   a0, 98
        br   out
bad:    li   a0, 63
out:    sys  putc
        br   loop
done:   clr  a0
        sys  halt
        .data
table:  .word case0, case1
after:  .word 222
`

// TestSharedTableKept: a table still used by a dispatch the predicate
// rejected survives the unswitching of the other one.
func TestSharedTableKept(t *testing.T) {
	const input = "0123x"
	p := build(t, sharedTableSrc)
	want := runSrcProgram(t, p, input)
	dataLen := len(p.Data)
	st := run(t, p, func(b *cfg.Block) bool { return b.Label == "disp1" })
	if st.Unswitched != 1 || st.Skipped != 1 || st.TableBytesReclaimed != 0 {
		t.Fatalf("stats = %+v, want one unswitched, one skipped, nothing reclaimed", st)
	}
	if len(p.Data) != dataLen {
		t.Fatalf("data shrank from %d to %d bytes", dataLen, len(p.Data))
	}
	if got := runSrcProgram(t, p, input); got != want {
		t.Fatalf("output %q after unswitching, want %q", got, want)
	}
}
