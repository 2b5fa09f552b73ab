package vm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/objfile"
	"repro/internal/testprog"
)

func run(t *testing.T, src string, input []byte) *Machine {
	t.Helper()
	m := load(t, src, input)
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m
}

func load(t *testing.T, src string, input []byte) *Machine {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return New(im, input)
}

func TestHaltStatus(t *testing.T) {
	m := run(t, `
        .text
        .func main
        li a0, 42
        sys halt
`, nil)
	if m.Status != 42 {
		t.Fatalf("status = %d, want 42", m.Status)
	}
}

func TestArithmetic(t *testing.T) {
	// Computes ((7*6)-2)/4 % 3 => 40/4=10, 10%3=1; plus unsigned compare.
	m := run(t, `
        .text
        .func main
        li   t0, 7
        li   t1, 6
        mul  t0, t1, t2     ; 42
        sub  t2, 2, t2      ; 40
        li   t3, 4
        div  t2, t3, t2     ; 10
        mod  t2, 3, t2      ; 1
        mov  t2, a0
        sys  halt
`, nil)
	if m.Status != 1 {
		t.Fatalf("status = %d, want 1", m.Status)
	}
}

func TestMulh(t *testing.T) {
	m := run(t, `
        .text
        .func main
        li   t0, 0x40000000
        li   t1, 8
        mulh t0, t1, a0     ; (2^30 * 8) >> 32 = 2
        sys  halt
`, nil)
	if m.Status != 2 {
		t.Fatalf("status = %d, want 2", m.Status)
	}
}

func TestEchoLoop(t *testing.T) {
	m := run(t, `
        .text
        .func main
loop:   sys  getc
        blt  v0, done
        mov  v0, a0
        sys  putc
        br   loop
done:   clr  a0
        sys  halt
`, []byte("hello, world"))
	if string(m.Output) != "hello, world" {
		t.Fatalf("output = %q", m.Output)
	}
}

func TestMemoryAndDataSection(t *testing.T) {
	m := run(t, `
        .text
        .func main
        la   t0, values
        ldw  t1, 0(t0)
        ldw  t2, 4(t0)
        add  t1, t2, a0
        la   t3, scratch
        stw  a0, 0(t3)
        ldw  a0, 0(t3)
        sys  halt
        .data
values: .word 30, 12
scratch:.word 0
`, nil)
	if m.Status != 42 {
		t.Fatalf("status = %d, want 42", m.Status)
	}
}

func TestCallReturn(t *testing.T) {
	m := run(t, `
        .text
        .func main
        lda  sp, -16(sp)
        stw  ra, 0(sp)
        li   a0, 5
        call double
        mov  v0, a0
        ldw  ra, 0(sp)
        lda  sp, 16(sp)
        sys  halt
        .func double
        add  a0, a0, v0
        ret
`, nil)
	if m.Status != 10 {
		t.Fatalf("status = %d, want 10", m.Status)
	}
}

func TestIndirectCallThroughPV(t *testing.T) {
	m := run(t, `
        .text
        .func main
        lda  sp, -16(sp)
        stw  ra, 0(sp)
        la   pv, triple
        li   a0, 7
        jsr  ra, (pv)
        mov  v0, a0
        ldw  ra, 0(sp)
        lda  sp, 16(sp)
        sys  halt
        .func triple
        add  a0, a0, v0
        add  v0, a0, v0
        ret
`, nil)
	if m.Status != 21 {
		t.Fatalf("status = %d, want 21", m.Status)
	}
}

func TestJumpTable(t *testing.T) {
	// switch (input byte - '0') { case 0: 'z'; case 1: 'o'; case 2: 't' }
	src := `
        .text
        .func main
        sys  getc
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
case2:  li   a0, 116
        br   out
bad:    li   a0, 63
out:    sys  putc
        clr  a0
        sys  halt
        .data
table:  .word case0, case1, case2
`
	for in, want := range map[string]string{"0": "z", "1": "o", "2": "t", "9": "?"} {
		m := run(t, src, []byte(in))
		if string(m.Output) != want {
			t.Errorf("input %q: output %q, want %q", in, m.Output, want)
		}
	}
}

func TestSetjmpLongjmp(t *testing.T) {
	m := run(t, `
        .text
        .func main
        lda  sp, -16(sp)
        stw  ra, 0(sp)
        sys  setjmp
        bne  v0, recovered
        li   a0, 65          ; 'A': first pass
        sys  putc
        call fail
        li   a0, 88          ; 'X': must be skipped
        sys  putc
recovered:
        li   a0, 66          ; 'B'
        sys  putc
        clr  a0
        sys  halt
        .func fail
        sys  longjmp
        ret
`, nil)
	if string(m.Output) != "AB" {
		t.Fatalf("output = %q, want AB", m.Output)
	}
}

func TestTrapIllegalInstruction(t *testing.T) {
	m := load(t, `
        .text
        .func main
        .word 0xFFFFFFFF
`, nil)
	// .word in text section is allowed by the assembler for testing.
	err := m.Run()
	var trap *TrapError
	if !errors.As(err, &trap) || !strings.Contains(trap.Reason, "illegal") {
		t.Fatalf("err = %v, want illegal instruction trap", err)
	}
}

func TestTrapDivZero(t *testing.T) {
	m := load(t, `
        .text
        .func main
        clr  t0
        li   t1, 3
        div  t1, t0, t2
`, nil)
	var trap *TrapError
	if err := m.Run(); !errors.As(err, &trap) || !strings.Contains(trap.Reason, "division") {
		t.Fatalf("want division trap, got %v", err)
	}
}

func TestTrapUnaligned(t *testing.T) {
	m := load(t, `
        .text
        .func main
        li   t0, 0x400001
        ldw  t1, 0(t0)
`, nil)
	var trap *TrapError
	if err := m.Run(); !errors.As(err, &trap) || !strings.Contains(trap.Reason, "unaligned") {
		t.Fatalf("want unaligned trap, got %v", err)
	}
}

func TestInstructionLimit(t *testing.T) {
	m := load(t, `
        .text
        .func main
loop:   br loop
`, nil)
	m.MaxInstructions = 1000
	if err := m.Run(); !errors.Is(err, ErrInstructionLimit) {
		t.Fatalf("want instruction limit error, got %v", err)
	}
	if m.Instructions != 1000 {
		t.Fatalf("stopped after %d instructions, want 1000", m.Instructions)
	}

	// Every limit short of a full run, on randomized programs: the block
	// loop must stop after exactly limit instructions, mid-block or at a
	// block edge, in the state the reference path reaches at that limit. The
	// reference machine steps one limit further per iteration, which is the
	// same as a fresh reference run at each limit.
	for seed := int64(0); seed < 4; seed++ {
		obj, err := asm.Assemble(testprog.Random(seed))
		if err != nil {
			t.Fatal(err)
		}
		im, err := objfile.Link("main", obj)
		if err != nil {
			t.Fatal(err)
		}
		input := []byte(fmt.Sprintf("limit %d", seed))
		ref := New(im, input)
		ref.DisableFastPath = true
		var midBlock, edges int
		for limit := uint64(1); ; limit++ {
			prevPC := ref.PC
			ref.MaxInstructions = limit
			rerr := ref.Run()
			if rerr == nil {
				break // halted at this limit: every shorter limit was checked
			}
			m := New(im, input)
			m.MaxInstructions = limit
			err := m.Run()
			if !errors.Is(err, ErrInstructionLimit) || m.Instructions != limit {
				t.Fatalf("seed %d limit %d: got %v after %d instructions", seed, limit, err, m.Instructions)
			}
			if err.Error() != rerr.Error() || m.PC != ref.PC || m.Reg != ref.Reg || m.Cycles != ref.Cycles {
				t.Fatalf("seed %d limit %d: fast %v pc=%#x cycles=%d, reference %v pc=%#x cycles=%d",
					seed, limit, err, m.PC, m.Cycles, rerr, ref.PC, ref.Cycles)
			}
			if ref.PC == prevPC+isa.WordSize {
				midBlock++
			} else {
				edges++
			}
		}
		if midBlock == 0 || edges == 0 {
			t.Fatalf("seed %d: %d mid-block and %d block-edge limits; want both", seed, midBlock, edges)
		}
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	m := run(t, `
        .text
        .func main
        li   zero, 99
        mov  zero, a0
        sys  halt
`, nil)
	if m.Status != 0 {
		t.Fatalf("r31 was written: status = %d", m.Status)
	}
}

func TestProfileCounts(t *testing.T) {
	m := load(t, `
        .text
        .func main
        li   t0, 5          ; executed once
loop:   sub  t0, 1, t0      ; executed 5 times
        bgt  t0, loop       ; executed 5 times
        clr  a0
        sys  halt
`, nil)
	m.EnableProfile()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Profile[0] != 1 || m.Profile[1] != 5 || m.Profile[2] != 5 || m.Profile[3] != 1 {
		t.Fatalf("profile = %v", m.Profile[:5])
	}
}

func TestCyclesAdvance(t *testing.T) {
	m := run(t, `
        .text
        .func main
        li   t0, 1
        ldw  t1, 0(sp)
        clr  a0
        sys  halt
`, nil)
	// li = 1 cycle, ldw = 2, clr = 1, halt = 10.
	if m.Cycles != 14 {
		t.Fatalf("cycles = %d, want 14", m.Cycles)
	}
	if m.Instructions != 4 {
		t.Fatalf("instructions = %d, want 4", m.Instructions)
	}
}

func TestSPTraceRecorded(t *testing.T) {
	m := load(t, `
        .text
        .func main
        lda  sp, -32(sp)
        li   a0, 65
        sys  putc
        lda  sp, 32(sp)
        li   a0, 66
        sys  putc
        clr  a0
        sys  halt
`, nil)
	m.StackCheck = true
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m.SPTrace) != 2 {
		t.Fatalf("SPTrace length = %d", len(m.SPTrace))
	}
	if m.SPTrace[0] != int32(objfile.StackTop)-32 || m.SPTrace[1] != int32(objfile.StackTop) {
		t.Fatalf("SPTrace = %v", m.SPTrace)
	}
}

// hookRecorder tests the Hook interception path.
type hookRecorder struct {
	lo, hi  uint32
	entered int
	target  uint32
}

func (h *hookRecorder) Range() (uint32, uint32) { return h.lo, h.hi }
func (h *hookRecorder) Enter(m *Machine) error {
	h.entered++
	m.PC = h.target
	return nil
}

func TestHookIntercepts(t *testing.T) {
	m := load(t, `
        .text
        .func main
        br   reserved
back:   li   a0, 7
        sys  halt
        .func reserved
        .word 0xFFFFFFFF     ; would trap if executed
`, nil)
	// Layout: word 0 = br, word 1 = li, word 2 = halt, word 3 = reserved.
	reserved := objfile.TextBase + 3*isa.WordSize
	back := objfile.TextBase + 1*isa.WordSize
	h := &hookRecorder{lo: reserved, hi: reserved + 4, target: back}
	m.Hook = h
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if h.entered != 1 || m.Status != 7 {
		t.Fatalf("entered=%d status=%d", h.entered, m.Status)
	}
}

func TestSelfModifyingCodeInvalidatesCache(t *testing.T) {
	// The program overwrites the instruction at patch (initially li a0, 1)
	// with li a0, 9 (same encoding patched via stw) before executing it.
	m := run(t, `
        .text
        .func main
        la   t0, patch
        ldw  t1, 0(t0)      ; fetch current encoding (also warms the cache)
        la   t2, template
        ldw  t3, 0(t2)
        stw  t3, 0(t0)      ; patch the instruction
patch:  li   a0, 1
        sys  halt
        .func template
        li   a0, 9
`, nil)
	if m.Status != 9 {
		t.Fatalf("status = %d, want 9 (stale decode cache?)", m.Status)
	}
}
