package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/vm"
)

// Interpret-in-place runtime (§8 alternative). The paper classifies
// compressed-program execution into two families: decompress-then-execute
// (squash's choice, smaller compressed form, needs the runtime buffer) and
// execute/interpret-without-decompression (Fraser & Proebsting [13],
// Proebsting [21]). This file implements the second family over the *same*
// compressed regions: instead of materializing a region into the buffer,
// the runtime decodes and executes its instructions one at a time at their
// *virtual* buffer addresses.
//
//   - Intra-region control flow stays virtual: branch targets inside the
//     buffer address range map back to instruction indices through a
//     per-region index (two bytes per instruction, charged to the
//     footprint).
//   - Calls leave the interpreter through the same CreateStub/restore-stub
//     machinery as decompression mode; a restore stub resumes
//     interpretation at its tag's offset rather than refilling a buffer.
//   - Every interpreted instruction pays a decode-and-dispatch cost
//     (vm.CostModel.InterpPerInst) on top of its own execution cost —
//     which is exactly the §8 trade-off: no buffer and no decompression
//     latency, but cold code runs slower every time it executes.
//
// Host-side, region decoding mirrors the buffer runtime's fast-path split
// (decompressAndJump): with the fast path on, a region is decoded once on
// first entry and the decoded instruction list is memoized in rt.imemo;
// with the fast path off, every entry re-decodes the region through the
// reference bit-at-a-time decoder. The simulated cost model cannot tell the
// difference — interpretation charges per *executed* instruction, never per
// decoded bit — so cycles, stats, and outputs are byte-identical either way.

// interpRegion is the decoded form of one region plus its offset index.
type interpRegion struct {
	insts []isa.Inst
	offs  []int32 // buffer word offset of each instruction
	// offIdx maps a buffer word offset to its instruction index, densely
	// (-1 marks offsets inside a two-word expanded call, which are not
	// instruction boundaries). It replaces a map so the per-branch lookup
	// in interpStep is an array load.
	offIdx []int32
}

// idxOf resolves a buffer word offset to an instruction index.
func (ir *interpRegion) idxOf(off int) (int, bool) {
	if off < 0 || off >= len(ir.offIdx) || ir.offIdx[off] < 0 {
		return 0, false
	}
	return int(ir.offIdx[off]), true
}

// interpState is the interpreter's current position.
type interpState struct {
	active bool
	region int
	idx    int
}

// interpPC is the parked program counter while interpreting: the word right
// after the decompressor's entry points, guaranteed inside the hook range.
func (rt *Runtime) interpPC() uint32 {
	return rt.meta.DecompAddr + NumEntryRegs*isa.WordSize
}

// decodeInterpRegion decodes one region through the stream decoder (the
// reference bit-at-a-time decoder when the fast path is off) and builds its
// offset index. A region must fit the virtual buffer as it would the real
// one, which also bounds a hostile stream that never ends.
func (rt *Runtime) decodeInterpRegion(region int) (*interpRegion, error) {
	ir := &interpRegion{}
	pos := int32(1)
	maxWords := int32(rt.meta.K / isa.WordSize)
	_, err := rt.comp.DecompressWords(rt.meta.Blob, int(rt.meta.OffsetTable[region]), func(w uint32) error {
		in := isa.Decode(w)
		ir.insts = append(ir.insts, in)
		ir.offs = append(ir.offs, pos)
		if in.Op == isa.OpBSRX || in.Op == isa.OpJSRX {
			pos += 2
		} else {
			pos++
		}
		if pos > maxWords {
			return fmt.Errorf("region overflows the %d-word virtual buffer", maxWords)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: interpret mode: decoding region %d: %w", region, err)
	}
	ir.offIdx = make([]int32, pos)
	for i := range ir.offIdx {
		ir.offIdx[i] = -1
	}
	for i, off := range ir.offs {
		ir.offIdx[off] = int32(i)
	}
	return ir, nil
}

// enterInterpRegion returns region's decoded form: from the memo when the
// fast path is on (filling it on first entry), or decoded afresh on every
// entry when it is off — the interpret-mode analogue of the regionImage
// replay in decompressAndJump.
func (rt *Runtime) enterInterpRegion(region int) (*interpRegion, error) {
	if region >= len(rt.imemo) {
		return nil, fmt.Errorf("core: tag names region %d of %d", region, len(rt.imemo))
	}
	if ir := rt.imemo[region]; ir != nil && !rt.noFastPath {
		rt.Telem.MemoHits++
		return ir, nil
	}
	ir, err := rt.decodeInterpRegion(region)
	if err != nil {
		return nil, err
	}
	if !rt.noFastPath {
		rt.imemo[region] = ir
		rt.Telem.MemoFills++
	}
	return ir, nil
}

// inVirtualBuffer reports whether addr lies in the (reserved, unbacked)
// buffer address range used for virtual placement of interpreted code.
func (rt *Runtime) inVirtualBuffer(addr uint32) bool { return rt.inBuffer(addr) }

// startInterp positions the interpreter at a region offset and parks the PC.
func (rt *Runtime) startInterp(m *vm.Machine, region, offset int) error {
	ir, err := rt.enterInterpRegion(region)
	if err != nil {
		return err
	}
	idx, ok := ir.idxOf(offset)
	if !ok {
		return fmt.Errorf("core: interpret entry at region %d offset %d, which is not an instruction boundary", region, offset)
	}
	rt.icur = ir
	rt.interp = interpState{active: true, region: region, idx: idx}
	rt.Stats.InterpEntries++
	m.PC = rt.interpPC()
	return nil
}

// interpStep decodes and executes one instruction of the current region.
func (rt *Runtime) interpStep(m *vm.Machine) error {
	st := &rt.interp
	if !st.active {
		return fmt.Errorf("core: interpreter stepped while inactive (pc=%#x)", m.PC)
	}
	ir := rt.icur
	if ir == nil || st.idx >= len(ir.insts) {
		return fmt.Errorf("core: interpreter ran off the end of region %d", st.region)
	}
	in := ir.insts[st.idx]
	vpc := rt.meta.RtBufAddr + uint32(int(ir.offs[st.idx])*isa.WordSize)
	m.Cycles += m.Cost.InterpPerInst
	rt.Stats.InterpInsts++

	var target uint32
	switch in.Op {
	case isa.OpBSRX:
		// Expanded direct call: link through a restore stub whose tag
		// resumes interpretation right after the (virtual) two-word pair.
		resume := uint32(int(ir.offs[st.idx]) + 2)
		slotAddr, err := rt.allocStub(m, uint32(st.region)<<16|resume, in.RA)
		if err != nil {
			return err
		}
		m.Reg[in.RA] = int32(slotAddr)
		// The transfer branch is relative to the word after the pair.
		target = vpc + 2*isa.WordSize + uint32(in.Disp)*isa.WordSize
	case isa.OpJSRX:
		resume := uint32(int(ir.offs[st.idx]) + 2)
		slotAddr, err := rt.allocStub(m, uint32(st.region)<<16|resume, in.RA)
		if err != nil {
			return err
		}
		m.Reg[in.RA] = int32(slotAddr)
		target = uint32(m.Reg[in.RB]) &^ 3
	default:
		next, err := m.ExecInst(in, vpc)
		if err != nil {
			return err
		}
		if m.Halted {
			return nil
		}
		target = next
	}

	if rt.inVirtualBuffer(target) {
		// Keep interpreting at the virtual target address.
		off := int(target-rt.meta.RtBufAddr) / isa.WordSize
		idx, ok := ir.idxOf(off)
		if !ok {
			return fmt.Errorf("core: virtual branch to non-boundary offset %d in region %d", off, st.region)
		}
		st.idx = idx
		m.PC = rt.interpPC()
		return nil
	}
	// Transfer control to a real (non-virtual) address.
	st.active = false
	m.PC = target
	return nil
}

// interpEnter handles hook entries in interpret mode; the hook range covers
// the decompressor entries, the restore-stub area, and the virtual buffer.
func (rt *Runtime) interpEnter(m *vm.Machine) error {
	pc := m.PC
	switch {
	case pc == rt.interpPC():
		return rt.interpStep(m)
	case pc >= rt.meta.DecompAddr && pc < rt.meta.DecompAddr+NumEntryRegs*isa.WordSize:
		// A stub called a decompressor entry point: the return-address
		// register holds the tag location (entry stubs and compile-time
		// restore stubs live in never-compressed code).
		reg := (pc - rt.meta.DecompAddr) / isa.WordSize
		retaddr := uint32(m.Reg[reg])
		tag, err := m.ReadWord(retaddr)
		if err != nil {
			return fmt.Errorf("core: cannot read entry tag: %w", err)
		}
		rt.Stats.Decompressions++ // region entry event, for parity of stats
		return rt.startInterp(m, int(tag>>16), int(tag&0xFFFF))
	case rt.inStubArea(pc):
		// A callee returned directly into a restore stub slot: emulate the
		// stub without executing its materialized words.
		idx := int(pc-rt.meta.StubAreaAddr) / (StubSlotWords * isa.WordSize)
		tag, err := rt.releaseStub(m, idx, pc)
		if err != nil {
			return err
		}
		return rt.startInterp(m, int(tag>>16), int(tag&0xFFFF))
	case rt.inVirtualBuffer(pc):
		// Direct control transfer to a virtual address (e.g., a stub's
		// transfer branch): resume interpretation there.
		if !rt.interpActiveRegionContains(pc) {
			return fmt.Errorf("core: control reached virtual address %#x with no active region", pc)
		}
		off := int(pc-rt.meta.RtBufAddr) / isa.WordSize
		return rt.startInterpAtOffset(m, off)
	default:
		return fmt.Errorf("core: control reached interpreter-reserved address %#x", pc)
	}
}

// interpActiveRegionContains reports whether the interpreter has a current
// region that owns the given virtual address.
func (rt *Runtime) interpActiveRegionContains(pc uint32) bool {
	if rt.icur == nil {
		return false
	}
	off := int(pc-rt.meta.RtBufAddr) / isa.WordSize
	_, ok := rt.icur.idxOf(off)
	return ok
}

// startInterpAtOffset resumes the current region at a virtual offset.
func (rt *Runtime) startInterpAtOffset(m *vm.Machine, off int) error {
	idx, ok := rt.icur.idxOf(off)
	if !ok {
		return fmt.Errorf("core: virtual resume at non-boundary offset %d", off)
	}
	rt.interp.active = true
	rt.interp.idx = idx
	m.PC = rt.interpPC()
	return nil
}
