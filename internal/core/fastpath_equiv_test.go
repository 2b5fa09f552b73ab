package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/objfile"
	"repro/internal/race"
	"repro/internal/testprog"
	"repro/internal/vm"
)

// runSquashedMode executes a squashed image with the fast paths either
// enabled (memoized region decompression, table-driven Huffman, predecoded
// dispatch) or fully disabled, returning the machine and runtime for
// comparison.
func runSquashedMode(t *testing.T, out *Output, input []byte, fast bool) (*vm.Machine, *Runtime) {
	t.Helper()
	rt, err := NewRuntime(out.Meta)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	rt.SetFastPath(fast)
	m := vm.New(out.Image, input)
	m.DisableFastPath = !fast
	m.StackCheck = true
	rt.Install(m)
	if err := m.Run(); err != nil {
		t.Fatalf("squashed run (fast=%v): %v", fast, err)
	}
	return m, rt
}

// assertModesIdentical compares every simulated observable between a
// fast-path run and a reference run: output bytes, exit status, instruction
// and cycle counts, PC, registers, all of memory, the SP trace, and the full
// RuntimeStats struct. The fast paths are pure implementation speedups with
// zero simulated-behaviour drift.
func assertModesIdentical(t *testing.T, label string, fastM, slowM *vm.Machine, fastRT, slowRT *Runtime) {
	t.Helper()
	if fastM.PC != slowM.PC {
		t.Fatalf("%s: PC %#x (fast) vs %#x (slow)", label, fastM.PC, slowM.PC)
	}
	if fastM.Reg != slowM.Reg {
		t.Fatalf("%s: registers differ:\n  fast %v\n  slow %v", label, fastM.Reg, slowM.Reg)
	}
	if i := vm.FirstMemDiff(fastM, slowM); i >= 0 {
		t.Fatalf("%s: memory differs from %#x", label, i)
	}
	if !vm.ZeroPageIntact() {
		t.Fatalf("%s: the shared zero page was written", label)
	}
	if string(fastM.Output) != string(slowM.Output) {
		t.Fatalf("%s: output differs:\n  fast %q\n  slow %q", label, fastM.Output, slowM.Output)
	}
	if fastM.Status != slowM.Status {
		t.Fatalf("%s: status %d (fast) vs %d (slow)", label, fastM.Status, slowM.Status)
	}
	if fastM.Instructions != slowM.Instructions {
		t.Fatalf("%s: %d instructions (fast) vs %d (slow)", label, fastM.Instructions, slowM.Instructions)
	}
	if fastM.Cycles != slowM.Cycles {
		t.Fatalf("%s: %d cycles (fast) vs %d (slow)", label, fastM.Cycles, slowM.Cycles)
	}
	if len(fastM.SPTrace) != len(slowM.SPTrace) {
		t.Fatalf("%s: SP trace length %d (fast) vs %d (slow)", label, len(fastM.SPTrace), len(slowM.SPTrace))
	}
	for i := range fastM.SPTrace {
		if fastM.SPTrace[i] != slowM.SPTrace[i] {
			t.Fatalf("%s: SP differs at output byte %d", label, i)
		}
	}
	if fastRT.Stats != slowRT.Stats {
		t.Fatalf("%s: runtime stats diverge:\n  fast %+v\n  slow %+v", label, fastRT.Stats, slowRT.Stats)
	}
}

// TestSquashFastPathEquivalence runs the standard squash test program with
// several region sizes (forcing repeated decompressions of the same regions,
// the memoization hot case) and checks fast-on vs fast-off equality.
func TestSquashFastPathEquivalence(t *testing.T) {
	obj, _, counts := prepare(t, testProgram, profInput)
	for _, k := range []int{64, 96, 256} {
		conf := DefaultConfig()
		conf.Regions.K = k
		out, err := Squash(obj, counts, conf)
		if err != nil {
			t.Fatalf("K=%d: Squash: %v", k, err)
		}
		fastM, fastRT := runSquashedMode(t, out, timingInput, true)
		slowM, slowRT := runSquashedMode(t, out, timingInput, false)
		assertModesIdentical(t, fmt.Sprintf("K=%d", k), fastM, slowM, fastRT, slowRT)
		if fastRT.Stats.Decompressions < 2 {
			t.Fatalf("K=%d: only %d decompressions; memoization untested", k, fastRT.Stats.Decompressions)
		}
	}
}

// TestSquashFastPathTriggerReplay feeds the test program an input made only
// of trigger bytes (digits, which take the cold selector), so the same few
// regions are replayed from the memo hundreds of times through
// vm.WritePredecoded, and compares the run with the reference, which refills
// the buffer through WriteWord after a fresh decode every time.
func TestSquashFastPathTriggerReplay(t *testing.T) {
	obj, _, counts := prepare(t, testProgram, profInput)
	input := bytes.Repeat([]byte("0123456789"), 40)
	for _, k := range []int{64, 256} {
		conf := DefaultConfig()
		conf.Regions.K = k
		out, err := Squash(obj, counts, conf)
		if err != nil {
			t.Fatalf("K=%d: Squash: %v", k, err)
		}
		fastM, fastRT := runSquashedMode(t, out, input, true)
		slowM, slowRT := runSquashedMode(t, out, input, false)
		assertModesIdentical(t, fmt.Sprintf("trigger K=%d", k), fastM, slowM, fastRT, slowRT)
		if fastRT.Telem.MemoHits < 300 {
			t.Fatalf("K=%d: %d memo replays; want the replay path exercised", k, fastRT.Telem.MemoHits)
		}
		if fastM.Telem.InvalidatedWords >= slowM.Telem.InvalidatedWords {
			t.Fatalf("K=%d: %d invalidated words with predecoded replays, %d without",
				k, fastM.Telem.InvalidatedWords, slowM.Telem.InvalidatedWords)
		}
	}
}

// TestSquashFastPathEquivalenceRandom repeats the check over randomized
// programs so region layout, stream contents, and replay order vary.
func TestSquashFastPathEquivalenceRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		src := testprog.Random(seed)
		obj, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("seed %d: assemble: %v", seed, err)
		}
		im, err := objfile.Link("main", obj)
		if err != nil {
			t.Fatalf("seed %d: link: %v", seed, err)
		}
		input := []byte(fmt.Sprintf("fastpath core equivalence %d", seed))
		prof := vm.New(im, input)
		prof.EnableProfile()
		if err := prof.Run(); err != nil {
			t.Fatalf("seed %d: profiling run: %v", seed, err)
		}
		conf := DefaultConfig()
		conf.Regions.K = 64
		out, err := Squash(obj, prof.Profile, conf)
		if err != nil {
			t.Fatalf("seed %d: Squash: %v", seed, err)
		}
		fastM, fastRT := runSquashedMode(t, out, input, true)
		slowM, slowRT := runSquashedMode(t, out, input, false)
		assertModesIdentical(t, fmt.Sprintf("seed %d", seed), fastM, slowM, fastRT, slowRT)
	}
}

// TestMemoizedReplayMatchesFreshDecode decompresses the same region twice in
// one runtime and checks the second (memoized) pass charges exactly the same
// simulated costs as the first (fresh) pass did.
func TestMemoizedReplayMatchesFreshDecode(t *testing.T) {
	obj, _, counts := prepare(t, testProgram, profInput)
	conf := DefaultConfig()
	conf.Regions.K = 96
	out, err := Squash(obj, counts, conf)
	if err != nil {
		t.Fatalf("Squash: %v", err)
	}
	rt, err := NewRuntime(out.Meta)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	m := vm.New(out.Image, nil)
	rt.Install(m)

	tag := uint32(0)<<16 | 1 // region 0, first entry offset
	if err := rt.decompressAndJump(m, tag); err != nil {
		t.Fatalf("fresh decompress: %v", err)
	}
	first := rt.Stats
	firstCycles := m.Cycles
	if err := rt.decompressAndJump(m, tag); err != nil {
		t.Fatalf("memoized decompress: %v", err)
	}
	if got, want := rt.Stats.BitsRead-first.BitsRead, first.BitsRead; got != want {
		t.Fatalf("memoized replay charged %d bits, fresh decode charged %d", got, want)
	}
	if got, want := m.Cycles-firstCycles, firstCycles; got != want {
		t.Fatalf("memoized replay charged %d cycles, fresh decode charged %d", got, want)
	}
}

// TestMemoReplayAllocGate gates the refill that thrashing code repeats:
// once a region is memoized and its tag's dispatch jump built, a refill
// allocates nothing.
func TestMemoReplayAllocGate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector adds its own allocations")
	}
	obj, _, counts := prepare(t, testProgram, profInput)
	conf := DefaultConfig()
	conf.Regions.K = 96
	out, err := Squash(obj, counts, conf)
	if err != nil {
		t.Fatalf("Squash: %v", err)
	}
	rt, err := NewRuntime(out.Meta)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	m := vm.New(out.Image, nil)
	rt.Install(m)
	tag := uint32(0)<<16 | 1 // region 0, first entry offset
	if err := rt.decompressAndJump(m, tag); err != nil {
		t.Fatalf("fresh decompress: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := rt.decompressAndJump(m, tag); err != nil {
			t.Fatalf("memoized decompress: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("memo replay: %v allocs/op, want 0", allocs)
	}
}
