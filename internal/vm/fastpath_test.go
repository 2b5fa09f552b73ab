package vm

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/objfile"
	"repro/internal/testprog"
)

// runPair executes the same image twice — once through the predecoded fast
// path and once with DisableFastPath forcing the reference interpreter — and
// asserts that every piece of observable machine state agrees. The fast path
// is only a fast path if nothing simulated can tell it apart.
func runPair(t *testing.T, label string, im *objfile.Image, input []byte, icache, profile bool) error {
	t.Helper()
	_, err := runPairDrive(t, label, im, input, func(m *Machine) error {
		if icache {
			m.AttachICache(NewICache(1024, 32, 8))
		}
		if profile {
			m.EnableProfile()
		}
		return m.Run()
	})
	return err
}

// runPairDrive is runPair with the machine set-up and run left to drive,
// which is called once per mode. It compares the error text, every register,
// the PC, the counters, the output, the profile, the icache model and all of
// memory, and returns the fast machine and the error both modes returned.
func runPairDrive(t *testing.T, label string, im *objfile.Image, input []byte, drive func(m *Machine) error) (*Machine, error) {
	t.Helper()
	run := func(disable bool) (*Machine, error) {
		m := New(im, input)
		m.DisableFastPath = disable
		return m, drive(m)
	}
	fast, ferr := run(false)
	slow, serr := run(true)
	if fmt.Sprint(ferr) != fmt.Sprint(serr) {
		t.Fatalf("%s: fast err %v, slow err %v", label, ferr, serr)
	}
	if fast.Status != slow.Status || fast.Halted != slow.Halted {
		t.Fatalf("%s: status %d/%v (fast) vs %d/%v (slow)", label, fast.Status, fast.Halted, slow.Status, slow.Halted)
	}
	if fast.Instructions != slow.Instructions {
		t.Fatalf("%s: %d instructions (fast) vs %d (slow)", label, fast.Instructions, slow.Instructions)
	}
	if fast.Cycles != slow.Cycles {
		t.Fatalf("%s: %d cycles (fast) vs %d (slow)", label, fast.Cycles, slow.Cycles)
	}
	if fast.PC != slow.PC {
		t.Fatalf("%s: PC %#x (fast) vs %#x (slow)", label, fast.PC, slow.PC)
	}
	if fast.Reg != slow.Reg {
		t.Fatalf("%s: register files diverge:\nfast %v\nslow %v", label, fast.Reg, slow.Reg)
	}
	if string(fast.Output) != string(slow.Output) {
		t.Fatalf("%s: output diverges: %q (fast) vs %q (slow)", label, fast.Output, slow.Output)
	}
	if i := FirstMemDiff(fast, slow); i >= 0 {
		a := uint32(i)
		t.Fatalf("%s: memory diverges at %#x: %#x (fast) vs %#x (slow)", label, a, fast.loadByte(a), slow.loadByte(a))
	}
	if !ZeroPageIntact() {
		t.Fatalf("%s: the shared zero page was written", label)
	}
	if !slices.Equal(fast.Profile, slow.Profile) {
		t.Fatalf("%s: profiles diverge", label)
	}
	if (fast.ICache == nil) != (slow.ICache == nil) {
		t.Fatalf("%s: icache model attached in one mode only", label)
	}
	if fast.ICache != nil && (fast.ICache.Hits != slow.ICache.Hits || fast.ICache.Misses != slow.ICache.Misses) {
		t.Fatalf("%s: icache %d hits/%d misses (fast) vs %d/%d (slow)", label,
			fast.ICache.Hits, fast.ICache.Misses, slow.ICache.Hits, slow.ICache.Misses)
	}
	return fast, ferr
}

func assembleImage(t testing.TB, src string) *objfile.Image {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// TestFastPathEquivalence runs randomized well-formed programs through both
// interpreters with every combination of icache model and profiling, and
// requires bit-identical machine state. This is the test the package doc
// promises: cycle-for-cycle equivalence over randomized programs.
func TestFastPathEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		im := assembleImage(t, testprog.Random(seed))
		input := []byte(fmt.Sprintf("fastpath equivalence %d", seed))
		for _, icache := range []bool{false, true} {
			for _, profile := range []bool{false, true} {
				label := fmt.Sprintf("seed %d icache=%v profile=%v", seed, icache, profile)
				runPair(t, label, im, input, icache, profile)
			}
		}
	}
}

// straightLine is a run of ALU and store µops, with no branch, that the
// mid-block trap cases put in front of their faulting instruction.
const straightLine = `lda  sp, -16(sp)
        li   t0, 7
        add  t0, 3, t1
        stw  t1, 0(sp)
        stb  t0, 5(sp)
        sub  t1, 2, t2
        xor  t2, t1, t6`

// TestFastPathTrapEquivalence pins the error paths: both interpreters must
// produce the same trap, at the same PC, with the same message and the same
// counters, for every fault the fast path handles itself or defers. The
// jump-wild and fall-off-end programs run into zero words, which decode as
// sys halt, so they stop without a trap.
func TestFastPathTrapEquivalence(t *testing.T) {
	cases := []struct{ name, body, reason string }{
		{"div-zero", "li t0, 7\n        li t1, 0\n        div t0, t1, t2", "pc=0x1008: integer division by zero"},
		{"mod-zero", "li t0, 7\n        li t1, 0\n        mod t0, t1, t2", "pc=0x1008: integer remainder by zero"},
		{"load-oob", "li t0, 0x7FFFFF00\n        ldw t1, 0(t0)", "pc=0x1008: word read out of bounds"},
		{"load-unaligned", "li t0, 0x10002\n        ldw t1, 1(t0)", "pc=0x1008: unaligned word read"},
		{"store-oob", "li t0, 0x7FFFFF00\n        stw t1, 0(t0)", "pc=0x1008: word write out of bounds"},
		{"ldb-oob", "li t0, 0x7FFFFF00\n        ldb t1, 0(t0)", "pc=0x1008: byte read out of bounds"},
		{"stb-oob", "li t0, 0x7FFFFF00\n        stb t1, 0(t0)", "pc=0x1008: byte write out of bounds"},
		{"jump-wild", "li t0, 12\n        jmp zero, (t0)", ""},
		{"fall-off-end", "li t0, 1", ""},
		// Traps after several µops of one block loop: it must have
		// published the faulting PC (the ldw/stw messages read m.PC) and
		// every earlier register and memory effect.
		{"div-zero-mid-block", straightLine + "\n        li   t3, 0\n        div  t2, t3, t4", "pc=0x1020: integer division by zero"},
		{"load-oob-mid-block", straightLine + "\n        li   t3, 0x7FFFFF00\n        ldw  t4, 0(t3)", "pc=0x1024: word read out of bounds"},
		{"store-unaligned-mid-block", straightLine + "\n        stw  t1, 6(sp)", "pc=0x101c: unaligned word write"},
		{"stb-oob-mid-block", straightLine + "\n        li   t3, 0x7FFFFF00\n        stb  t1, 0(t3)", "pc=0x1024: byte write out of bounds"},
		{"illegal-after-jump", straightLine + "\n        la   t5, bad\n        jmp  zero, (t5)\n        sys  halt\nbad:    .word 0xFFFFFFFF", "pc=0x102c: illegal instruction"},
	}
	for _, tc := range cases {
		src := "        .text\n        .func main\n        " + tc.body + "\n"
		if tc.name != "fall-off-end" {
			src += "        sys  halt\n"
		}
		err := runPair(t, tc.name, assembleImage(t, src), nil, false, false)
		if !strings.Contains(fmt.Sprint(err), tc.reason) {
			t.Errorf("%s: got %v, want a trap containing %q", tc.name, err, tc.reason)
		}
	}
}

// TestFastPathSelfModifyStore overwrites upcoming instructions with stw and
// stb through already-predecoded words, from a loop that itself stays
// cached: the invalidation hooks must keep the shadow decode coherent in
// both interpreters.
func TestFastPathSelfModifyStore(t *testing.T) {
	// The program reads the word at patchme, adds 1 to its literal field
	// (li a0, N assembles to lda a0, N(zero); Disp is the low 16 bits), and
	// stores it back — so each pass through the loop bumps the constant the
	// next pass loads. After 5 passes a0 is 45.
	src := `
        .text
        .func main
        li   t3, 5
loop:
        la   t0, patchme
        ldw  t1, 0(t0)
        add  t1, 1, t1
        stw  t1, 0(t0)
patchme:
        li   a0, 40
        sub  t3, 1, t3
        bne  t3, loop
        sys  halt
`
	im := assembleImage(t, src)
	runPair(t, "stw-patch", im, nil, false, false)
	m := New(im, nil)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Status != 45 {
		t.Fatalf("self-modifying loop: status %d, want 45", m.Status)
	}

	// Same shape, patching with a byte store into the instruction's low
	// byte (little-endian: byte 0 of the word is the low Disp byte).
	srcB := `
        .text
        .func main
        li   t3, 5
loop:
        la   t0, patchme
        ldb  t1, 0(t0)
        add  t1, 1, t1
        stb  t1, 0(t0)
patchme:
        li   a0, 40
        sub  t3, 1, t3
        bne  t3, loop
        sys  halt
`
	imB := assembleImage(t, srcB)
	runPair(t, "stb-patch", imB, nil, false, false)
	mb := New(imB, nil)
	if err := mb.Run(); err != nil {
		t.Fatal(err)
	}
	if mb.Status != 45 {
		t.Fatalf("byte-patching loop: status %d, want 45", mb.Status)
	}
}

// TestFastPathInvalidateRange predecodes a word, invalidates its range, and
// rewrites memory directly: the next Step must decode the new word, not
// dispatch the stale shadow entry.
func TestFastPathInvalidateRange(t *testing.T) {
	im := assembleImage(t, `
        .text
        .func main
        li   a0, 1
        sys  halt
`)
	m := New(im, nil)
	if err := m.Step(); err != nil { // predecode + execute "li a0, 1"
		t.Fatal(err)
	}
	// Rewrite the first instruction to "li a0, 9" behind the cache's back,
	// then jump PC there. Without InvalidateRange the stale µop would load 1.
	w, err := m.ReadWord(objfile.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteWord(objfile.TextBase, w&^0xFFFF|9); err != nil {
		t.Fatal(err)
	}
	m.InvalidateRange(objfile.TextBase, objfile.TextBase+4)
	m.PC = objfile.TextBase
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if m.Reg[isa.RegA0] != 9 {
		t.Fatalf("after invalidate+rewrite, a0 = %d, want 9", m.Reg[isa.RegA0])
	}
}

// TestFastPathStoreIntoNextWord patches, with stw and then stb, the word
// that directly follows the store in one straight-line block. The first pass
// runs the original instruction, so its µop is cached when the second pass
// overwrites it; the block loop must run the new instruction.
func TestFastPathStoreIntoNextWord(t *testing.T) {
	for _, store := range []string{"ldw  t1, 0(t5)\n        stw  t1, 0(t0)", "ldb  t1, 0(t5)\n        stb  t1, 0(t0)"} {
		src := `
        .text
        .func main
        li   t3, 2
        la   t0, patch
        la   t5, template
loop:   sub  t3, 1, t3
        beq  t3, store
        br   patch
store:  ` + store + `
patch:  li   a0, 1
        bgt  t3, loop
        sys  halt
template:
        li   a0, 9
`
		m, err := runPairDrive(t, store, assembleImage(t, src), nil, (*Machine).Run)
		if err != nil {
			t.Fatal(err)
		}
		if m.Status != 9 {
			t.Fatalf("%q: status %d, want 9 from the patched word", store, m.Status)
		}
	}
}

// testHook intercepts [lo, hi): each entry bumps register reg, charges 7
// cycles and returns to the address in ra.
type testHook struct {
	lo, hi uint32
	reg    int
	enters int
}

func (h *testHook) Range() (uint32, uint32) { return h.lo, h.hi }

func (h *testHook) Enter(m *Machine) error {
	h.enters++
	m.Reg[h.reg]++
	m.Cycles += 7
	m.PC = uint32(m.Reg[isa.RegRA])
	return nil
}

// hookOver returns a testHook over the two words at the text symbol sym.
func hookOver(t *testing.T, im *objfile.Image, sym string, reg int) *testHook {
	t.Helper()
	a, err := im.SymAddr(sym)
	if err != nil {
		t.Fatal(err)
	}
	return &testHook{lo: a, hi: a + 2*isa.WordSize, reg: reg}
}

// TestFastPathHookEntry reaches a hook's range by falling through into it
// from straight-line code (three times) and by a branch (once). The block
// loop must leave at the range's first word both ways, even though the words
// there were never predecoded.
func TestFastPathHookEntry(t *testing.T) {
	im := assembleImage(t, `
        .text
        .func main
        li   t3, 3
loop:   la   ra, back
        add  t4, 1, t4
        .func hooked
        sys  halt
        sys  halt
        .func rest
back:   sub  t3, 1, t3
        bgt  t3, loop
        bsr  ra, hooked
        mov  t6, a0
        sys  halt
`)
	var hooks []*testHook
	m, err := runPairDrive(t, "hook entry", im, nil, func(m *Machine) error {
		h := hookOver(t, im, "hooked", isa.RegT0+6)
		hooks = append(hooks, h)
		m.Hook = h
		return m.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hooks {
		if h.enters != 4 {
			t.Fatalf("hook entered %d times, want 4", h.enters)
		}
	}
	if m.Status != 4 {
		t.Fatalf("status %d, want 4 hook entries", m.Status)
	}
}

// TestFastPathHookSwap runs to an instruction limit under one hook, swaps in
// a hook over a different function, and runs on. The swapped-in range covers
// words the first run predecoded, and the cached range of the first hook
// must not survive the swap.
func TestFastPathHookSwap(t *testing.T) {
	im := assembleImage(t, `
        .text
        .func main
        li   t3, 6
loop:   bsr  ra, fx
        bsr  ra, fy
        sub  t3, 1, t3
        bgt  t3, loop
        sys  halt
        .func fx
        add  t6, 1, t6
        ret
        .func fy
        add  t7, 1, t7
        ret
`)
	const (
		regFX  = isa.RegT0 + 4 // entries of the hook over fx
		regFY  = isa.RegT0 + 5 // entries of the hook over fy
		execFX = isa.RegT0 + 6 // runs of fx itself
		execFY = isa.RegT0 + 7 // runs of fy itself
	)
	m, err := runPairDrive(t, "hook swap", im, nil, func(m *Machine) error {
		m.Hook = hookOver(t, im, "fx", regFX)
		m.MaxInstructions = 20
		if err := m.Run(); !errors.Is(err, ErrInstructionLimit) {
			return fmt.Errorf("first run: %v", err)
		}
		m.Hook = hookOver(t, im, "fy", regFY)
		m.MaxInstructions = 0
		return m.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	r := m.Reg
	if r[regFX] == 0 || r[regFY] == 0 || r[regFX]+r[execFX] != 6 || r[regFY]+r[execFY] != 6 || r[regFX] != r[execFY] {
		t.Fatalf("fx hooked %d ran %d, fy hooked %d ran %d: want each 6 in all, split at the swap",
			r[regFX], r[execFX], r[regFY], r[execFY])
	}
}

// TestInvalidateRangeTopOfAddressSpace is a regression test: a range ending
// within a word of 2^32 used to wrap the word cursor to 0 and loop forever.
func TestInvalidateRangeTopOfAddressSpace(t *testing.T) {
	im := assembleImage(t, "        .text\n        .func main\n        sys  halt\n")
	m := New(im, nil)
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		m.InvalidateRange(0xFFFFFFF0, 0xFFFFFFFF)
		m.InvalidateRange(0, 0xFFFFFFFF)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("InvalidateRange did not return")
	}
	if m.icache[0].kind != uInvalid || m.Telem.InvalidatedWords != uint64(len(m.icache)) {
		t.Fatalf("whole-space range invalidated %d words, want every text word (%d)", m.Telem.InvalidatedWords, len(m.icache))
	}
}
