package core

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/objfile"
	"repro/internal/vm"
)

// Runtime is the squash decompression runtime, installed as the simulator's
// hook over the reserved decompressor region. It mirrors §2.2–2.3 of the
// paper exactly:
//
//   - The decompressor has one entry point per possible return-address
//     register (the first NumEntryRegs words of the reserved region).
//   - CreateStub and Decompress share these entry points; the caller's
//     origin distinguishes them: a return address inside the runtime buffer
//     means CreateStub, inside the stub area means a restore-stub return,
//     anywhere else an entry stub whose tag word follows the call.
//   - Restore stubs are created at run time, one per compressed call site,
//     with a usage count; the stub is freed when its count drops to zero —
//     "a simple reference-count-based garbage collection scheme".
//
// All work is charged to the simulated cycle counter using the machine's
// cost model: bits consumed by the canonical Huffman decoder, instructions
// materialized, the instruction-cache flush, and stub management.
type Runtime struct {
	meta *Meta
	comp RegionCoder

	curRegion int // region currently in the buffer; -1 when none

	// memo caches each region's decoded emission the first time it is
	// decompressed, so replays skip the Huffman decode and field reassembly
	// entirely. The simulated cost is unchanged: the recorded bit count and
	// instruction count feed the same cycle charges and RuntimeStats as a
	// real decode, and a replay stores the same words, through
	// vm.WritePredecoded instead of WriteWord.
	memo []*regionImage
	// jumps holds, per tag offset, the predecoded dispatch jump that a
	// fast-path refill stores at buffer word 0 (built on first use, grown
	// to the largest offset seen), so the jump is neither invalidated nor
	// predecoded again on each refill.
	jumps []*vm.Predecoded
	// noFastPath selects the reference paths (no memo, tree-walk decode);
	// only tests set it, as the oracle the fast paths are checked against.
	noFastPath bool

	slots []stubSlot
	// free has bit i set while slot i is free; a new stub takes the lowest
	// free slot (first fit), so stub addresses follow allocation order.
	free []uint64
	// byTag maps a tag to the slot its stub last occupied. Entries outlive
	// their stubs, so a stub's life costs no map insert or delete: an
	// entry names the tag's live stub only while that slot is live with
	// the same tag (see allocStub).
	byTag map[uint32]int

	// Interpret-in-place state (§8 alternative; see interp.go). imemo
	// caches each region's decoded instruction list the first time it is
	// entered (the interpreter's analogue of memo); icur is the decoded
	// form of the region currently being interpreted.
	imemo  []*interpRegion
	icur   *interpRegion
	interp interpState

	Stats RuntimeStats
	Telem RuntimeTelemetry

	// Trace, when set, receives one line per runtime event (diagnostics).
	Trace func(string)
}

// regionImage is one region's memoized decompression: the buffer words it
// emits (indices 1..len; word 0 is the per-tag dispatch branch, stored
// on every entry by writeJump) with their predecoded µops, and the
// compressed bits its decode consumed.
type regionImage struct {
	code *vm.Predecoded
	bits int
}

type stubSlot struct {
	live  bool
	tag   uint32
	count int
	reg   uint32 // return-address register the stub's bsr uses
}

// RuntimeStats counts runtime events for the evaluation harness. Every
// field is part of the simulated observable state: the fast-path
// equivalence tests compare the whole struct, so anything counted here
// must be identical with the fast paths on or off (host-side memo
// behavior goes in RuntimeTelemetry instead).
type RuntimeStats struct {
	Decompressions   uint64 `json:"decompressions"`     // regions decompressed into the buffer
	Evictions        uint64 `json:"evictions"`          // buffer refills that displaced a different region
	BitsRead         uint64 `json:"bits_read"`          // compressed bits consumed
	InstsEmitted     uint64 `json:"insts_emitted"`      // instructions materialized into the buffer
	CreateStubHits   uint64 `json:"create_stub_hits"`   // restore-stub reuses (count bump)
	CreateStubMisses uint64 `json:"create_stub_misses"` // restore stubs created
	RestoreReturns   uint64 `json:"restore_returns"`    // returns dispatched through restore stubs
	MaxLiveStubs     int    `json:"max_live_stubs"`     // high-water mark of simultaneously live stubs
	LiveStubs        int    `json:"live_stubs"`         // currently live
	InterpEntries    uint64 `json:"interp_entries"`     // interpret mode: region entries
	InterpInsts      uint64 `json:"interp_insts"`       // interpret mode: instructions interpreted
}

// RuntimeTelemetry counts host-side fast-path events. These live outside
// RuntimeStats because the memo only operates when the fast path is on,
// while RuntimeStats must be byte-identical either way.
type RuntimeTelemetry struct {
	MemoHits  uint64 `json:"memo_hits"`  // region entries served from the decode memo
	MemoFills uint64 `json:"memo_fills"` // regions decoded and recorded into the memo
}

// NewRuntime builds the runtime for a squashed image's metadata. It
// refuses metadata whose layout the runtime could not build (see
// checkLayout), so hostile geometry is an error here, never a panic in
// the assembler once the program runs.
func NewRuntime(meta *Meta) (*Runtime, error) {
	if err := meta.checkLayout(); err != nil {
		return nil, err
	}
	comp, err := meta.Compressor()
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		meta:      meta,
		comp:      comp,
		curRegion: -1,
		memo:      make([]*regionImage, len(meta.OffsetTable)),
		slots:     make([]stubSlot, meta.StubCapacity),
		free:      make([]uint64, (meta.StubCapacity+63)/64),
		byTag:     map[uint32]int{},
	}
	for i := range rt.slots {
		rt.free[i/64] |= 1 << (i % 64)
	}
	if meta.Interpret {
		// Regions decode lazily on first entry (see enterInterpRegion); the
		// memo starts empty just like the buffer runtime's.
		rt.imemo = make([]*interpRegion, len(meta.OffsetTable))
	}
	return rt, nil
}

// checkLayout verifies once what every stub and buffer fill relies on:
// the decompressor, the restore-stub area and the runtime buffer are
// word-aligned, lie inside VM memory and do not overlap, the bsr the
// runtime assembles in any stub slot or buffer word reaches every
// decompressor entry within the 21-bit branch displacement, and every
// region's code starts inside the blob.
func (m *Meta) checkLayout() error {
	for i, off := range m.OffsetTable {
		if uint64(off) > 8*uint64(len(m.Blob)) {
			return fmt.Errorf("core: region %d starts at bit %d, past the %d-byte blob", i, off, len(m.Blob))
		}
	}
	// Bound the counts first, so the byte sizes below cannot wrap.
	if m.StubCapacity < 0 || m.StubCapacity > int(objfile.MemSize) || m.K < 0 || m.K > int(objfile.MemSize) {
		return fmt.Errorf("core: implausible stub capacity %d or buffer size %d", m.StubCapacity, m.K)
	}
	stubBytes := uint64(m.StubCapacity) * StubSlotWords * isa.WordSize
	areas := [...]struct {
		name    string
		base, n uint64 // base address and size in bytes
		// lastBSR is the word offset from base of the last word that may
		// hold a runtime-assembled bsr, or -1 if the runtime writes none:
		// the last stub slot's first word, and the word just past the
		// buffer, which a fill encodes before refusing to store it.
		lastBSR int64
	}{
		{"decompressor", uint64(m.DecompAddr), DecompWords * isa.WordSize, -1},
		{"restore-stub area", uint64(m.StubAreaAddr), stubBytes, int64(m.StubCapacity-1) * StubSlotWords},
		{"runtime buffer", uint64(m.RtBufAddr), uint64(m.K), int64(m.K / isa.WordSize)},
	}
	entryLo := int64(m.DecompAddr / isa.WordSize)
	entryHi := entryLo + NumEntryRegs - 1
	for i, a := range areas {
		if a.base%isa.WordSize != 0 {
			return fmt.Errorf("core: %s at %#x is not word-aligned", a.name, a.base)
		}
		if a.base+a.n > uint64(objfile.MemSize) {
			return fmt.Errorf("core: %s [%#x,+%#x) lies outside VM memory", a.name, a.base, a.n)
		}
		if a.n == 0 {
			continue
		}
		for _, b := range areas[:i] {
			if b.n > 0 && a.base < b.base+b.n && b.base < a.base+a.n {
				return fmt.Errorf("core: %s at %#x overlaps the %s at %#x", a.name, a.base, b.name, b.base)
			}
		}
		if a.lastBSR < 0 {
			continue
		}
		// A bsr at word w reaches entry e with displacement e-(w+1).
		first := int64(a.base / isa.WordSize)
		if lo, hi := entryLo-(first+a.lastBSR+1), entryHi-(first+1); lo < -(1<<20) || hi >= 1<<20 {
			return fmt.Errorf("core: %s at %#x is out of branch reach of the decompressor at %#x", a.name, a.base, m.DecompAddr)
		}
	}
	return nil
}

// Range reports the intercepted address interval: the decompressor region
// in normal mode; in interpret mode it extends through the restore-stub
// area and the virtual buffer, which are emulated rather than executed.
func (rt *Runtime) Range() (uint32, uint32) {
	if rt.meta.Interpret {
		return rt.meta.DecompAddr, rt.meta.RtBufAddr + uint32(rt.meta.K)
	}
	return rt.meta.DecompAddr, rt.meta.DecompAddr + DecompWords*isa.WordSize
}

func (rt *Runtime) inBuffer(addr uint32) bool {
	return addr >= rt.meta.RtBufAddr && addr < rt.meta.RtBufAddr+uint32(rt.meta.K)
}

func (rt *Runtime) inStubArea(addr uint32) bool {
	return rt.meta.StubCapacity > 0 &&
		addr >= rt.meta.StubAreaAddr &&
		addr < rt.meta.StubAreaAddr+uint32(rt.meta.StubCapacity*StubSlotWords*isa.WordSize)
}

// Enter handles control arriving at a decompressor entry point.
func (rt *Runtime) Enter(m *vm.Machine) error {
	if rt.meta.Interpret {
		return rt.interpEnter(m)
	}
	off := m.PC - rt.meta.DecompAddr
	reg := off / isa.WordSize
	if off%isa.WordSize != 0 || reg >= NumEntryRegs {
		return fmt.Errorf("core: control reached decompressor body at %#x", m.PC)
	}
	retaddr := uint32(m.Reg[reg])
	switch {
	case rt.inBuffer(retaddr):
		return rt.createStub(m, reg, retaddr)
	case rt.inStubArea(retaddr):
		return rt.restoreReturn(m, retaddr)
	default:
		return rt.entryStub(m, retaddr)
	}
}

// entryStub: the tag word follows the call instruction in never-compressed
// code; decompress the region and dispatch.
func (rt *Runtime) entryStub(m *vm.Machine, tagAddr uint32) error {
	tag, err := m.ReadWord(tagAddr)
	if err != nil {
		return fmt.Errorf("core: cannot read entry tag: %w", err)
	}
	return rt.decompressAndJump(m, tag)
}

// createStub: a call is leaving the runtime buffer; make (or reuse) the
// restore stub for this call site and point the return register at it, then
// resume at the transfer instruction.
func (rt *Runtime) createStub(m *vm.Machine, reg, transferAddr uint32) error {
	resume := (transferAddr-rt.meta.RtBufAddr)/isa.WordSize + 1
	if rt.curRegion < 0 {
		return fmt.Errorf("core: CreateStub with empty buffer")
	}
	tag := uint32(rt.curRegion)<<16 | resume
	if rt.Trace != nil {
		rt.Trace(fmt.Sprintf("createStub reg=%d transfer=%#x region=%d resume=%d", reg, transferAddr, rt.curRegion, resume))
	}
	slotAddr, err := rt.allocStub(m, tag, reg)
	if err != nil {
		return err
	}
	// Point the call's return register at the stub and execute the
	// transfer instruction.
	m.Reg[reg] = int32(slotAddr)
	m.PC = transferAddr
	return nil
}

// allocStub finds or creates the restore stub for a call-site tag,
// maintaining the usage count (in memory, so the paper's 8-bytes-per-stub
// cost is real), and returns the slot's address.
func (rt *Runtime) allocStub(m *vm.Machine, tag uint32, reg uint32) (uint32, error) {
	last, seen := rt.byTag[tag]
	idx := last
	if seen && rt.slots[idx].live && rt.slots[idx].tag == tag {
		rt.slots[idx].count++
		rt.Stats.CreateStubHits++
		m.Cycles += m.Cost.CreateStubHit
	} else {
		idx = rt.lowestFreeSlot()
		if idx < 0 {
			return 0, fmt.Errorf("core: restore-stub area exhausted (%d slots)", rt.meta.StubCapacity)
		}
		rt.free[idx/64] &^= 1 << (idx % 64)
		rt.slots[idx] = stubSlot{live: true, tag: tag, count: 1, reg: reg}
		if !seen || last != idx {
			rt.byTag[tag] = idx
		}
		rt.Stats.CreateStubMisses++
		rt.Stats.LiveStubs++
		if rt.Stats.LiveStubs > rt.Stats.MaxLiveStubs {
			rt.Stats.MaxLiveStubs = rt.Stats.LiveStubs
		}
		m.Cycles += m.Cost.CreateStubMiss
		// Materialize the stub: bsr reg -> decompressor entry for reg,
		// then the tag word.
		slotAddr := rt.slotAddr(idx)
		entryWord := int32(rt.meta.DecompAddr)/isa.WordSize + int32(reg)
		disp := entryWord - (int32(slotAddr)/isa.WordSize + 1)
		if err := m.WriteWord(slotAddr, isa.Encode(isa.Br(isa.OpBSR, reg, disp))); err != nil {
			return 0, err
		}
		if err := m.WriteWord(slotAddr+4, tag); err != nil {
			return 0, err
		}
	}
	if err := m.WriteWord(rt.slotAddr(idx)+8, uint32(rt.slots[idx].count)); err != nil {
		return 0, err
	}
	return rt.slotAddr(idx), nil
}

// lowestFreeSlot returns the index of the lowest free slot, or -1 when
// every slot is live.
func (rt *Runtime) lowestFreeSlot() int {
	for w, b := range rt.free {
		if b != 0 {
			return w*64 + bits.TrailingZeros64(b)
		}
	}
	return -1
}

func (rt *Runtime) slotAddr(idx int) uint32 {
	return rt.meta.StubAreaAddr + uint32(idx*StubSlotWords*isa.WordSize)
}

// restoreReturn: a callee returned into a restore stub; drop the stub's
// usage count, re-decompress the caller's region, and continue at the
// instruction after the original call.
func (rt *Runtime) restoreReturn(m *vm.Machine, tagAddr uint32) error {
	idx := int(tagAddr-rt.meta.StubAreaAddr-isa.WordSize) / (StubSlotWords * isa.WordSize)
	tag, err := rt.releaseStub(m, idx, tagAddr)
	if err != nil {
		return err
	}
	return rt.decompressAndJump(m, tag)
}

// releaseStub accounts for one return through the stub in slot idx, which
// the address at lies in, and returns the stub's tag. The last use frees
// the slot; any other rewrites the stub's count word.
func (rt *Runtime) releaseStub(m *vm.Machine, idx int, at uint32) (uint32, error) {
	if idx < 0 || idx >= len(rt.slots) || !rt.slots[idx].live {
		return 0, fmt.Errorf("core: return through dead restore stub at %#x", at)
	}
	slot := &rt.slots[idx]
	if rt.Trace != nil {
		rt.Trace(fmt.Sprintf("restore slot=%d region=%d resume=%d count=%d", idx, slot.tag>>16, slot.tag&0xFFFF, slot.count))
	}
	slot.count--
	rt.Stats.RestoreReturns++
	m.Cycles += m.Cost.RestoreDispatch
	if slot.count == 0 {
		slot.live = false
		rt.free[idx/64] |= 1 << (idx % 64)
		rt.Stats.LiveStubs--
	} else if err := m.WriteWord(rt.slotAddr(idx)+8, uint32(slot.count)); err != nil {
		return 0, err
	}
	return slot.tag, nil
}

// decompressAndJump fills the runtime buffer with the region named by the
// tag and transfers control to the tag's offset via the dispatch jump at
// buffer word 0 (§2.3 steps 2–5).
func (rt *Runtime) decompressAndJump(m *vm.Machine, tag uint32) error {
	region := int(tag >> 16)
	offset := int(tag & 0xFFFF)
	if rt.Trace != nil {
		rt.Trace(fmt.Sprintf("decompress region=%d offset=%d", region, offset))
	}
	if region >= len(rt.meta.OffsetTable) {
		return fmt.Errorf("core: tag names region %d of %d", region, len(rt.meta.OffsetTable))
	}
	base := rt.meta.RtBufAddr
	maxWords := rt.meta.K / isa.WordSize
	if offset <= 0 || offset >= maxWords {
		return fmt.Errorf("core: tag offset %d outside buffer of %d words", offset, maxWords)
	}

	// Dispatch jump from buffer word 0 to the target offset.
	if err := rt.writeJump(m, base, offset); err != nil {
		return err
	}

	var pos, bits int // buffer words filled, including word 0; bits consumed
	if img := rt.memo[region]; img != nil && !rt.noFastPath {
		rt.Telem.MemoHits++
		// Replay the memoized emission. The words are offset-independent
		// (only the dispatch word above depends on the tag), and
		// WritePredecoded installs their µops with them, so the simulator
		// neither invalidates nor re-predecodes the buffer.
		if err := m.WritePredecoded(base+isa.WordSize, img.code); err != nil {
			return err
		}
		pos, bits = 1+img.code.Len(), img.bits
	} else {
		var err error
		if pos, bits, err = rt.decodeRegion(m, region); err != nil {
			return err
		}
	}
	m.ICacheFlush(base, base+uint32(pos*isa.WordSize))
	if rt.curRegion >= 0 && rt.curRegion != region {
		// Identical on both paths: curRegion transitions don't depend on
		// whether the fill came from the memo or a fresh decode.
		rt.Stats.Evictions++
	}
	rt.Stats.Decompressions++
	rt.Stats.BitsRead += uint64(bits)
	rt.Stats.InstsEmitted += uint64(pos - 1)
	m.Cycles += m.Cost.DecompBase +
		m.Cost.DecompPerBit*uint64(bits) +
		m.Cost.DecompPerInst*uint64(pos-1) +
		m.Cost.IcacheFlushPerWord*uint64(pos)
	rt.curRegion = region
	m.PC = base
	return nil
}

// decodeRegion decompresses region into the runtime buffer after word 0,
// storing each word with WriteWord, and on the fast path records the
// emission in the memo. It returns the buffer words filled, including word
// 0, and the compressed bits consumed. It is separate from
// decompressAndJump so that the position its emit closure captures is
// heap-allocated only for a decode, not on every memo replay.
func (rt *Runtime) decodeRegion(m *vm.Machine, region int) (pos, bits int, err error) {
	base := rt.meta.RtBufAddr
	maxWords := rt.meta.K / isa.WordSize
	decompWord := int32(rt.meta.DecompAddr) / isa.WordSize
	bufWord := int32(base) / isa.WordSize
	pos = 1
	emit := func(w uint32) error {
		if pos >= maxWords {
			return fmt.Errorf("core: region %d overflows the runtime buffer", region)
		}
		if err := m.WriteWord(base+uint32(pos*isa.WordSize), w); err != nil {
			return err
		}
		pos++
		return nil
	}
	bits, err = rt.comp.DecompressWords(rt.meta.Blob, int(rt.meta.OffsetTable[region]), func(w uint32) error {
		switch w >> 26 {
		case isa.OpBSRX:
			// Expanded direct call: bsr ra -> CreateStub entry, then the
			// branch to the callee with the displacement stored in the
			// compressed word (relative to the word after the branch).
			ra := w >> 21 & 31
			csDisp := decompWord + int32(ra) - (bufWord + int32(pos) + 1)
			if err := emit(isa.Encode(isa.Br(isa.OpBSR, ra, csDisp))); err != nil {
				return err
			}
			return emit(isa.OpBR<<26 | isa.RegZero<<21 | w&0x1FFFFF)
		case isa.OpJSRX:
			// Expanded indirect call: bsr ra -> CreateStub entry, then a
			// non-linking jump through the original target register rb.
			ra := w >> 21 & 31
			csDisp := decompWord + int32(ra) - (bufWord + int32(pos) + 1)
			if err := emit(isa.Encode(isa.Br(isa.OpBSR, ra, csDisp))); err != nil {
				return err
			}
			return emit(isa.Encode(isa.Jump(isa.JmpJMP, isa.RegZero, w>>16&31, 0)))
		default:
			// The coder emits only canonical words (RegionCoder), so the
			// buffer receives the word as decoded.
			return emit(w)
		}
	})
	if err != nil {
		return 0, 0, fmt.Errorf("core: decompressing region %d: %w", region, err)
	}
	if !rt.noFastPath {
		// Record the emission for replay: read the words back out of the
		// buffer so the memo holds exactly what a decode produces.
		words := make([]uint32, pos-1)
		for i := range words {
			w, err := m.ReadWord(base + uint32((i+1)*isa.WordSize))
			if err != nil {
				return 0, 0, err
			}
			words[i] = w
		}
		rt.memo[region] = &regionImage{code: vm.Predecode(words), bits: bits}
		rt.Telem.MemoFills++
	}
	return pos, bits, nil
}

// writeJump stores the dispatch jump to offset at buffer word 0. The fast
// path stores the offset's predecoded jump, built the first time the offset
// is dispatched to; memory and every simulated counter end up as after the
// reference path's WriteWord of the same word.
func (rt *Runtime) writeJump(m *vm.Machine, base uint32, offset int) error {
	w := isa.Encode(isa.Br(isa.OpBR, isa.RegZero, int32(offset-1)))
	if rt.noFastPath {
		return m.WriteWord(base, w)
	}
	if offset >= len(rt.jumps) {
		rt.jumps = append(rt.jumps, make([]*vm.Predecoded, offset+1-len(rt.jumps))...)
	}
	if rt.jumps[offset] == nil {
		rt.jumps[offset] = vm.Predecode([]uint32{w})
	}
	return m.WritePredecoded(base, rt.jumps[offset])
}

// Install attaches the runtime to a machine.
func (rt *Runtime) Install(m *vm.Machine) { m.Hook = rt }
