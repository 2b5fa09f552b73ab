package vm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/objfile"
)

// wordDirective is the assembler line that places in's encoding in text.
func wordDirective(in isa.Inst) string {
	return fmt.Sprintf(".word %#x", isa.Encode(in))
}

// TestFastPathStoreOverSlowWord runs into a uSlow word (an operate with an
// unknown function code), which traps and leaves its µop cached; a stw then
// overwrites the word with a valid add before it runs again. The fast path
// must re-predecode the new word, not re-run the cached uSlow entry.
func TestFastPathStoreOverSlowWord(t *testing.T) {
	unknown := isa.OpR(isa.OpIntA, isa.RegA0, isa.RegA0, 0x7F, isa.RegA0)
	im := assembleImage(t, `
        .text
        .func main
        li   a0, 5
bad:    `+wordDirective(unknown)+`
        sys  halt
        .func fix
        la   t0, bad
        la   t1, good
        ldw  t2, 0(t1)
        stw  t2, 0(t0)
        br   bad
good:   add  a0, 1, a0
`)
	bad, err := im.SymAddr("bad")
	if err != nil {
		t.Fatal(err)
	}
	fix, err := im.SymAddr("fix")
	if err != nil {
		t.Fatal(err)
	}
	var traps []string
	m, err := runPairDrive(t, "store over uSlow", im, nil, func(m *Machine) error {
		err := m.Run()
		var trap *TrapError
		if !errors.As(err, &trap) || trap.PC != bad {
			return fmt.Errorf("first run: %v, want a trap at %#x", err, bad)
		}
		traps = append(traps, err.Error())
		m.PC = fix
		return m.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(traps) != 2 || traps[0] != traps[1] || !strings.Contains(traps[0], "unknown operate") {
		t.Fatalf("first-run traps %q: want one identical unknown-operate trap per mode", traps)
	}
	if m.Status != 6 {
		t.Fatalf("status %d, want 6 from the patched add", m.Status)
	}
}

// TestFastPathStoreTrappingWord overwrites, with stw, a word that already
// ran on the fast path with a BSRX, which must trap when it runs again: the
// new word's uSlow µop re-decodes it from memory and traps with the
// reference message at the same PC.
func TestFastPathStoreTrappingWord(t *testing.T) {
	src := `
        .text
        .func main
        li   t3, 2
        la   t0, patch
        la   t5, template
loop:   sub  t3, 1, t3
        beq  t3, store
        br   patch
store:  ldw  t1, 0(t5)
        stw  t1, 0(t0)
patch:  li   a0, 1
        bgt  t3, loop
        sys  halt
template:
        ` + wordDirective(isa.Br(isa.OpBSRX, isa.RegRA, 4)) + `
`
	im := assembleImage(t, src)
	patch, err := im.SymAddr("patch")
	if err != nil {
		t.Fatal(err)
	}
	_, err = runPairDrive(t, "store trapping word", im, nil, (*Machine).Run)
	want := fmt.Sprintf("pc=%#x: virtual opcode BSRX", patch)
	if !strings.Contains(fmt.Sprint(err), want) {
		t.Fatalf("got %v, want a trap containing %q", err, want)
	}
}

// TestReferenceMemoSeesNewWord changes the word at the entry point between
// Steps, once to a new word and once back: each Step must execute the word
// memory holds then, in both modes, even though the reference path's memo
// already holds a decode of the old word.
func TestReferenceMemoSeesNewWord(t *testing.T) {
	if isa.Decode(0) != (isa.Inst{}) {
		t.Fatal("word 0 does not decode to the zero Inst, so a zeroed decodeMemo entry is not a valid one")
	}
	im := assembleImage(t, `
        .text
        .func main
        li   a0, 1
        sys  halt
`)
	var got [][3]int32
	m, err := runPairDrive(t, "memo sees new word", im, nil, func(m *Machine) error {
		w, err := m.ReadWord(objfile.TextBase)
		if err != nil {
			return err
		}
		var a0 [3]int32
		for k, word := range []uint32{w, w&^0xFFFF | 9, w} {
			if err := m.WriteWord(objfile.TextBase, word); err != nil {
				return err
			}
			m.PC = objfile.TextBase
			if err := m.Step(); err != nil {
				return err
			}
			a0[k] = m.Reg[isa.RegA0]
		}
		got = append(got, a0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a0 := range got {
		if a0 != [3]int32{1, 9, 1} {
			t.Fatalf("a0 after each step %v, want [1 9 1]", a0)
		}
	}
	if m.Instructions != 3 {
		t.Fatalf("%d instructions, want 3", m.Instructions)
	}
}

// TestDecodeCacheEntrySize pins the decode-cache entry at the 8 bytes the
// block loop reads; every vm.New zeroes one per text word, and every
// memoized buffer refill copies one per word.
func TestDecodeCacheEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(cachedInst{}); got != 8 {
		t.Fatalf("cachedInst is %d bytes, want 8", got)
	}
}
