package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/vm"
)

// squashTestProgram builds a squashed image of the shared test program with
// a small buffer so several regions form.
func squashTestProgram(t *testing.T, mod func(*Config)) *Output {
	t.Helper()
	obj, _, counts := prepare(t, testProgram, profInput)
	conf := DefaultConfig()
	conf.Regions.K = 96
	conf.Theta = 1.0
	if mod != nil {
		mod(&conf)
	}
	out, err := Squash(obj, counts, conf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRuntimeRejectsCorruptBlob(t *testing.T) {
	out := squashTestProgram(t, nil)
	// Flip bits throughout the blob; every run must either complete with
	// correct-length output or fail cleanly — never hang or panic.
	for i := 0; i < len(out.Meta.Blob); i += 5 {
		meta := *out.Meta
		meta.Blob = append([]byte(nil), out.Meta.Blob...)
		meta.Blob[i] ^= 0x55
		rt, err := NewRuntime(&meta)
		if err != nil {
			continue
		}
		m := vm.New(out.Image, timingInput)
		m.MaxInstructions = 3_000_000
		rt.Install(m)
		_ = m.Run() // error or miscomputation are both acceptable: no hang
	}
}

func TestRuntimeRejectsCorruptTables(t *testing.T) {
	out := squashTestProgram(t, nil)
	meta := *out.Meta
	meta.Tables = append([]byte(nil), out.Meta.Tables...)
	meta.Tables[len(meta.Tables)/2] ^= 0xFF
	if _, err := NewRuntime(&meta); err == nil {
		// Some corruptions still deserialize; then the run must not hang.
		rt, _ := NewRuntime(&meta)
		m := vm.New(out.Image, timingInput)
		m.MaxInstructions = 3_000_000
		rt.Install(m)
		_ = m.Run()
	}
}

func TestRuntimeBadTagOffset(t *testing.T) {
	out := squashTestProgram(t, nil)
	rt, err := NewRuntime(out.Meta)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(out.Image, timingInput)
	rt.Install(m)
	// Force a bogus region index by corrupting the first entry stub's tag
	// word in memory (the word after the first bsr into the decompressor).
	lo, _ := rt.Range()
	found := false
	for a := uint32(0x1000); a < lo && !found; a += 4 {
		w, err := m.ReadWord(a)
		if err != nil {
			break
		}
		in := isa.Decode(w)
		if in.Op == isa.OpBSR && in.RA == isa.RegAT {
			if err := m.WriteWord(a+4, 0xFFFF0001); err != nil {
				t.Fatal(err)
			}
			found = true
		}
	}
	if !found {
		t.Skip("no entry stub found before decompressor")
	}
	m.MaxInstructions = 3_000_000
	err = m.Run()
	if err == nil || !strings.Contains(err.Error(), "region") {
		t.Fatalf("corrupted tag produced %v, want region-range error", err)
	}
}

func TestRuntimeStubExhaustion(t *testing.T) {
	// Capacity 1 with recursive cold code requires only one slot (the
	// recursion shares a call site); capacity 0... is not constructible via
	// config (clamped), so exercise exhaustion by a tiny capacity and a
	// program with more distinct simultaneous call sites.
	obj, _, counts := prepare(t, testProgram, profInput)
	conf := DefaultConfig()
	conf.Regions.K = 96
	conf.Theta = 1.0
	conf.StubCapacity = 1
	out, err := Squash(obj, counts, conf)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(out.Meta)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(out.Image, timingInput)
	m.MaxInstructions = 20_000_000
	rt.Install(m)
	if err := m.Run(); err != nil {
		if !strings.Contains(err.Error(), "exhausted") {
			t.Fatalf("unexpected failure: %v", err)
		}
		return // clean diagnosis
	}
	// If one slot sufficed, the run must still be correct.
	if rt.Stats.LiveStubs != 0 {
		t.Fatal("stub leak")
	}
}

func TestRuntimeEnterBodyTraps(t *testing.T) {
	out := squashTestProgram(t, nil)
	rt, err := NewRuntime(out.Meta)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(out.Image, nil)
	rt.Install(m)
	lo, hi := rt.Range()
	if hi-lo != DecompWords*4 {
		t.Fatalf("hook range %d bytes", hi-lo)
	}
	// Jump straight into the decompressor body (past the entry points).
	m.PC = lo + NumEntryRegs*4 + 8
	if err := m.Step(); err == nil || !strings.Contains(err.Error(), "body") {
		t.Fatalf("body entry gave %v", err)
	}
}

// metaFlagsOffset is the byte offset of the flags word in serialized
// metadata: the magic and five u32 fields precede it.
const metaFlagsOffset = 24

// TestMetaRejectsReservedBits: bits 1-7 of the metadata flags word and
// split-stream table flag bytes other than 0 (plain) and 1 (MTF) are
// reserved; metadata that sets either must not load.
func TestMetaRejectsReservedBits(t *testing.T) {
	out := squashTestProgram(t, nil)
	enc, err := out.Meta.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for bit := 1; bit < 8; bit++ {
		bad := bytes.Clone(enc)
		bad[metaFlagsOffset] |= 1 << bit
		if _, err := UnmarshalMeta(bad); err == nil {
			t.Errorf("metadata flag bit %d accepted", bit)
		}
	}
	for _, flag := range []byte{2, 7, 0xFF} {
		meta := *out.Meta
		meta.Tables = append([]byte{flag}, out.Meta.Tables[1:]...)
		if _, err := NewRuntime(&meta); err == nil {
			t.Errorf("table flag byte %#x accepted", flag)
		}
	}
}

func TestUnmarshalMetaGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("SQM1"),
		[]byte("SQM1\x01\x02"),
	}
	for _, b := range cases {
		if _, err := UnmarshalMeta(b); err == nil {
			t.Errorf("UnmarshalMeta(%q) accepted", b)
		}
	}
	// Round trip sanity with an empty-but-valid meta.
	m := &Meta{DecompAddr: 0x1000, RtBufAddr: 0x2000, K: 512, StubCapacity: 4}
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalMeta(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.K != 512 || back.StubCapacity != 4 {
		t.Fatalf("round trip: %+v", back)
	}
	// Truncations of a valid meta must all be rejected.
	for n := 0; n < len(blob); n++ {
		if _, err := UnmarshalMeta(blob[:n]); err == nil {
			t.Errorf("truncated meta (%d bytes) accepted", n)
		}
	}
}

func TestRuntimeCostCharging(t *testing.T) {
	out := squashTestProgram(t, nil)
	baseRun := func(scale uint64) uint64 {
		rt, err := NewRuntime(out.Meta)
		if err != nil {
			t.Fatal(err)
		}
		m := vm.New(out.Image, timingInput)
		m.Cost.DecompPerBit *= scale
		m.Cost.DecompPerInst *= scale
		rt.Install(m)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Cycles
	}
	c1 := baseRun(1)
	c4 := baseRun(4)
	if c4 <= c1 {
		t.Fatalf("scaling decompression cost did not raise cycles: %d vs %d", c1, c4)
	}
}

func TestRuntimeStatsConsistency(t *testing.T) {
	out := squashTestProgram(t, nil)
	rt, err := NewRuntime(out.Meta)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(out.Image, timingInput)
	rt.Install(m)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats
	if st.RestoreReturns != st.CreateStubHits+st.CreateStubMisses {
		t.Errorf("restore returns %d != hits %d + misses %d (no longjmp in this program)",
			st.RestoreReturns, st.CreateStubHits, st.CreateStubMisses)
	}
	if st.BitsRead == 0 || st.InstsEmitted == 0 || st.Decompressions == 0 {
		t.Errorf("stats empty: %+v", st)
	}
	if st.MaxLiveStubs < 1 {
		t.Error("max live stubs not tracked")
	}
}

// TestNewRuntimeRejectsBadLayout: metadata whose areas the runtime could
// not build is refused by NewRuntime. A restore-stub area out of branch
// reach of the decompressor used to pass NewRuntime and panic in
// isa.Encode at the first restore stub.
func TestNewRuntimeRejectsBadLayout(t *testing.T) {
	out := seedOutputs(t, 1)[0]
	if _, err := NewRuntime(out.Meta); err != nil {
		t.Fatalf("unmodified metadata: %v", err)
	}
	for _, c := range []struct {
		name, want string
		edit       func(*Meta)
	}{
		{"stub area out of reach", "branch reach", farStubArea},
		{"buffer out of reach", "branch reach", func(m *Meta) { m.RtBufAddr = m.DecompAddr + 0x600000 }},
		{"buffer past memory", "outside VM memory", func(m *Meta) { m.RtBufAddr = 0x800000 - 64 }},
		{"decompressor past memory", "outside VM memory", func(m *Meta) { m.DecompAddr = 0xFFFFFFF0 }},
		{"stub area over the buffer", "overlaps", func(m *Meta) { m.StubAreaAddr = m.RtBufAddr }},
		{"buffer over the decompressor", "overlaps", func(m *Meta) { m.RtBufAddr = m.DecompAddr + 8 }},
		{"unaligned stub area", "word-aligned", func(m *Meta) { m.StubAreaAddr += 2 }},
		{"negative stub capacity", "implausible", func(m *Meta) { m.StubCapacity = -1 }},
		{"huge buffer", "implausible", func(m *Meta) { m.K = 1 << 40 }},
		{"region past the blob", "past the", func(m *Meta) { m.OffsetTable = []uint32{0xdf00} }},
	} {
		meta := *out.Meta
		c.edit(&meta)
		rt, err := NewRuntime(&meta)
		if err == nil {
			// Run it anyway, so a layout that slips through shows what it
			// would do.
			m := vm.New(out.Image, []byte("fuzz seed input"))
			m.MaxInstructions = 200_000
			rt.Install(m)
			err = m.Run()
			t.Fatalf("%s: NewRuntime accepted the layout (run: %v)", c.name, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want it to mention %q", c.name, err, c.want)
		}
	}
}

// TestInterpretRegionOverflowsBuffer: in interpret mode, as in the buffer
// runtime, a region that does not fit the buffer is an error. Interpret
// mode used to decode a region without bound, so a stream that never
// reaches its end sentinel (the decoder reads zero bits past the blob)
// grew the decoded region until memory ran out.
func TestInterpretRegionOverflowsBuffer(t *testing.T) {
	out := seedOutputs(t, 1)[2]
	meta := *out.Meta
	meta.K = 16
	rt, err := NewRuntime(&meta)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(out.Image, []byte("fuzz seed input"))
	m.MaxInstructions = 200_000
	rt.Install(m)
	if err := m.Run(); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Errorf("run with a 16-byte buffer: %v, want an overflow error", err)
	}
}

// TestStubSlotFirstFit pins restore-stub slot order, which fixes stub
// addresses, memory and cycles: a new stub takes the lowest free slot.
// Three live stubs fill slots 0–2, and a return through the middle one
// frees slot 1 for the next miss. Then slots 2 and 1 are freed in that
// order, and the next miss must again take slot 1: not slot 2, the one
// freed last, nor slot 3, the one after the last taken.
func TestStubSlotFirstFit(t *testing.T) {
	out := squashTestProgram(t, nil)
	rt, err := NewRuntime(out.Meta)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(out.Image, nil)
	rt.Install(m)
	// Tags name region 0 at distinct resume offsets; a stub returns there.
	alloc := func(resume uint32) int {
		t.Helper()
		a, err := rt.allocStub(m, resume, isa.RegRA)
		if err != nil {
			t.Fatal(err)
		}
		return int(a-rt.meta.StubAreaAddr) / (StubSlotWords * isa.WordSize)
	}
	ret := func(slot int) {
		t.Helper()
		if err := rt.restoreReturn(m, rt.slotAddr(slot)+isa.WordSize); err != nil {
			t.Fatal(err)
		}
	}
	for k := range 3 {
		if got := alloc(uint32(k + 1)); got != k {
			t.Fatalf("stub %d took slot %d, want %d", k, got, k)
		}
	}
	if got := alloc(2); got != 1 {
		t.Fatalf("a live tag's stub was not reused: slot %d, want 1", got)
	}
	ret(1)
	ret(1)
	if got := alloc(4); got != 1 {
		t.Fatalf("after a return through slot 1, the next miss took slot %d, want 1", got)
	}
	ret(2)
	ret(1)
	if got := alloc(5); got != 1 {
		t.Fatalf("with slots 1 and 2 free, the next miss took slot %d, want 1", got)
	}
	if got := alloc(3); got != 2 {
		t.Fatalf("a tag whose stub was freed took slot %d, want 2", got)
	}
	// Tag 4's last slot now holds tag 5's stub, which must not be reused.
	if got := alloc(4); got != 3 {
		t.Fatalf("a tag whose old slot holds another stub took slot %d, want 3", got)
	}
	want := RuntimeStats{CreateStubHits: 1, CreateStubMisses: 7, RestoreReturns: 4, MaxLiveStubs: 4, LiveStubs: 4, Decompressions: 4, InstsEmitted: rt.Stats.InstsEmitted, BitsRead: rt.Stats.BitsRead}
	if rt.Stats != want {
		t.Fatalf("stats %+v, want %+v", rt.Stats, want)
	}
}
