// Package vm implements a cycle-counting interpreter for EM32 images. It is
// the stand-in for the paper's Alpha 21264 test machine: it executes linked
// executables — including rewritten (squashed) ones — collects basic-block
// execution profiles, and charges a deterministic cycle cost per operation
// so that relative execution times can be compared across program versions.
//
// A machine's MemSize memory is a table of 64 KiB pages (see mem.go). Pages
// nothing has stored to share one all-zero page that no store reaches, and
// the first store to a page gives it private storage, so a machine holds
// only the pages its image and its run touch. Loads and stores see one
// flat, zero-initialized memory either way.
//
// The decompression runtime of the squashed binaries is installed as a Hook:
// when control reaches the reserved decompressor region, the hook runs
// instead of the (deliberately unexecutable) placeholder words there. The
// hook writes real instructions into the runtime buffer and stub area, which
// the interpreter then executes normally, exactly mirroring the paper's
// software decompressor whose output is ordinary machine code.
package vm

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/objfile"
)

// Hook intercepts execution of a reserved address range (the decompressor).
type Hook interface {
	// Range reports the intercepted half-open address interval.
	Range() (lo, hi uint32)
	// Enter is invoked when the program counter enters the range. It must
	// update the machine state (including PC) to continue execution.
	Enter(m *Machine) error
}

// TrapError describes an execution fault.
type TrapError struct {
	PC     uint32
	Reason string
}

func (e *TrapError) Error() string {
	return fmt.Sprintf("vm: trap at pc=%#x: %s", e.PC, e.Reason)
}

// ErrInstructionLimit is returned when execution exceeds the configured
// instruction budget, which indicates a runaway loop in a test program.
var ErrInstructionLimit = errors.New("vm: instruction limit exceeded")

// Machine is one EM32 execution context. Its memory is reached only
// through ReadWord, WriteWord, WritePredecoded and the program's own loads
// and stores; FirstMemDiff compares two machines' memories.
type Machine struct {
	// pages maps each 64 KiB page of memory to its storage: zeroPage until
	// the first store to the page, a private page after (see mem.go).
	pages [numPages]*page

	Reg [isa.NumRegs]int32
	PC  uint32

	// Input is consumed by the GETC syscall; Output accumulates PUTC bytes.
	Input  []byte
	inPos  int
	Output []byte

	// Halted is set by the HALT syscall; Status is its exit code.
	Halted bool
	Status int32

	// Statistics.
	Instructions uint64
	Cycles       uint64

	// Telem accumulates host-side path telemetry (see telemetry.go). It
	// never influences simulated state.
	Telem Counters

	// Profile counts executions per text word when profiling is enabled
	// with EnableProfile. Index is (pc - TextBase) / 4.
	Profile []uint64

	// MaxInstructions bounds execution; 0 means the package default.
	MaxInstructions uint64

	// Hook, when set, intercepts its address range (see Hook).
	Hook Hook

	// ICache, when set, models a direct-mapped instruction cache (see
	// icache.go); fetches charge its miss penalty.
	ICache *ICache

	// Cost is the decompression cost model used by hooks; defaults are
	// installed by New.
	Cost CostModel

	// StackCheck records Reg[SP] at every PUTC syscall when enabled; the
	// equivalence tests compare these traces between program versions to
	// verify the paper's claim that the call stack of the original and the
	// compressed program are the same size at every point (§2.2).
	StackCheck bool
	SPTrace    []int32

	// DisableFastPath forces every step through the reference decode and
	// dispatch path (stepSlow/exec). Simulated state — registers,
	// memory, cycles, instruction counts, traps — is identical either way;
	// the flag exists so tests and the CI guard can assert that.
	DisableFastPath bool

	// textWords is the extent of the text section in words, used for
	// profile bounds and the decode cache.
	textWords int

	// Decode cache over the text segment, invalidated on stores.
	icache []cachedInst

	// Reference-path decode memo (see fetch), allocated by the first
	// reference step; fast-path runs never touch it.
	decoded *decodeMemo

	// Cached Hook.Range() as [hookLo, hookLo+hookSpan) so the dispatch loop
	// tests it with one unsigned compare and no interface call; recomputed
	// whenever the installed hook changes. An empty or inverted range has
	// span 0.
	hookSrc  Hook
	hookLo   uint32
	hookSpan uint32

	jmp *jmpState
}

// cachedInst is one decode-cache entry: exactly the 8 bytes of predecoded
// µop that the block loop reads (see fastpath.go). It keeps no decoded
// isa.Inst: a uSlow entry re-decodes its word from memory, which is exact
// because every store path (WriteWord, stw/stb into text, InvalidateRange,
// WritePredecoded) invalidates or replaces the entry, so a live entry always
// sits over the word it was predecoded from. kind doubles as the valid flag
// (uInvalid marks an empty or invalidated entry).
type cachedInst struct {
	kind       uint8 // µop kind (uSlow routes through exec)
	ra, rb, rc uint8
	imm        int32 // folded immediate: disp, disp<<16, lit, or disp*4
}

// decodeMemoBits sizes the reference path's decode memo: 1<<decodeMemoBits
// direct-mapped entries, indexed by word address, so code within any
// 16 KiB span maps to distinct entries.
const decodeMemoBits = 12

// decodeMemo is the reference path's decode memo (see fetch): each entry
// holds a word and its decoded form, and a lookup hits only when the entry's
// word equals the word fetched. isa.Decode is a pure function of the word,
// so an entry never goes stale: a store changes which word fetch compares,
// not what a word decodes to, and the memo needs no invalidation. A zeroed
// entry is a valid one, since word 0 decodes to the zero isa.Inst.
type decodeMemo [1 << decodeMemoBits]struct {
	word uint32
	in   isa.Inst
}

type jmpState struct {
	reg [isa.NumRegs]int32
	pc  uint32
	set bool
}

// DefaultMaxInstructions bounds a single Run unless overridden.
const DefaultMaxInstructions = 2_000_000_000

// New creates a machine loaded with the image: text and data copied into a
// fresh, zeroed MemSize memory, SP initialized to StackTop, PC at the entry
// point. Only the pages text and data land on get storage; text or data
// running past MemSize is cut off there.
func New(im *objfile.Image, input []byte) *Machine {
	text := im.Text[:min(len(im.Text), int(objfile.MemSize-objfile.TextBase)/isa.WordSize)]
	m := &Machine{
		Input:     input,
		PC:        im.Entry,
		textWords: len(text),
		Cost:      DefaultCostModel(),
	}
	for i := range m.pages {
		m.pages[i] = &zeroPage
	}
	m.storeWords(objfile.TextBase, text)
	m.storeBytes(objfile.DataBase, im.Data[:min(len(im.Data), int(objfile.MemSize-objfile.DataBase))])
	m.Reg[isa.RegSP] = int32(objfile.StackTop)
	m.icache = make([]cachedInst, len(text))
	return m
}

// EnableProfile allocates the per-word execution counter array.
func (m *Machine) EnableProfile() {
	m.Profile = make([]uint64, m.textWords)
}

// ProfileCounts returns the per-word execution counters as a copy (safe to
// retain after further execution; convertible to profile.Counts, which this
// package cannot import without a cycle through cfg's tests). Nil when
// profiling was never enabled.
func (m *Machine) ProfileCounts() []uint64 {
	if m.Profile == nil {
		return nil
	}
	return append([]uint64(nil), m.Profile...)
}

// InvalidateRange drops decode-cache entries for [lo, hi); hooks that write
// instructions (the decompressor) must call this for the bytes they touch.
// The range is clamped to the text extent first, so a range ending near the
// top of the address space cannot wrap the word cursor.
func (m *Machine) InvalidateRange(lo, hi uint32) {
	lo = max(lo, objfile.TextBase)
	hi = min(hi, objfile.TextBase+uint32(len(m.icache))*isa.WordSize)
	for a := lo &^ 3; a < hi; a += isa.WordSize {
		m.icache[(a-objfile.TextBase)/isa.WordSize].kind = uInvalid
		m.Telem.InvalidatedWords++
	}
}

// ReadWord fetches the aligned 32-bit word at addr.
func (m *Machine) ReadWord(addr uint32) (uint32, error) {
	if addr%isa.WordSize != 0 {
		return 0, &TrapError{m.PC, fmt.Sprintf("unaligned word read at %#x", addr)}
	}
	if addr > objfile.MemSize-4 { // checks addr+4 without overflow
		return 0, &TrapError{m.PC, fmt.Sprintf("word read out of bounds at %#x", addr)}
	}
	return m.loadWord(addr), nil
}

// WriteWord stores the aligned 32-bit word at addr, invalidating any cached
// decode of that location.
func (m *Machine) WriteWord(addr uint32, v uint32) error {
	if addr%isa.WordSize != 0 {
		return &TrapError{m.PC, fmt.Sprintf("unaligned word write at %#x", addr)}
	}
	if addr > objfile.MemSize-4 { // see ReadWord: avoids uint32 wrap at the top of the address space
		return &TrapError{m.PC, fmt.Sprintf("word write out of bounds at %#x", addr)}
	}
	m.storeWord(addr, v)
	if idx := int(addr-objfile.TextBase) / isa.WordSize; idx >= 0 && idx < len(m.icache) {
		m.icache[idx].kind = uInvalid
		m.Telem.InvalidatedWords++
	}
	return nil
}

// fetch decodes the instruction at pc for the reference path. It reads the
// word from memory on every call and decodes it through the word-checked
// memo (the result is valid until the next fetch), so it never consults or
// fills the µop cache.
func (m *Machine) fetch(pc uint32) (*isa.Inst, error) {
	if pc%isa.WordSize != 0 {
		return nil, &TrapError{pc, "unaligned instruction fetch"}
	}
	if pc > objfile.MemSize-4 { // avoids uint32 wrap for fetches at the top of the address space
		return nil, &TrapError{pc, "instruction fetch out of bounds"}
	}
	if m.decoded == nil {
		m.decoded = new(decodeMemo)
	}
	w := m.loadWord(pc)
	e := &m.decoded[pc/isa.WordSize%(1<<decodeMemoBits)]
	if e.word != w {
		e.word, e.in = w, isa.Decode(w)
	}
	return &e.in, nil
}

// Run executes until HALT, a trap, or the instruction limit. Each dispatch
// call runs a whole block of predecoded µops (see fastpath.go); the loop
// here only re-enters it after a hook entry, a reference step or a block
// exit, and stops with ErrInstructionLimit once exactly limit instructions
// have executed.
func (m *Machine) Run() error {
	limit := m.MaxInstructions
	if limit == 0 {
		limit = DefaultMaxInstructions
	}
	for !m.Halted {
		if m.Instructions >= limit {
			return fmt.Errorf("%w (%d instructions, pc=%#x)", ErrInstructionLimit, m.Instructions, m.PC)
		}
		if err := m.dispatch(limit); err != nil {
			return err
		}
	}
	return nil
}

// stepSlow is the reference step: fetch (µop cache aside), cache model,
// profile, exec. It preserves the pre-fast-path semantics exactly and
// handles every case the fast path does not.
func (m *Machine) stepSlow(pc uint32) error {
	m.Telem.SlowSteps++
	in, err := m.fetch(pc)
	if err != nil {
		return err
	}
	m.icacheAccess(pc)
	if m.Profile != nil {
		if idx := int(pc-objfile.TextBase) / isa.WordSize; idx >= 0 && idx < len(m.Profile) {
			m.Profile[idx]++
		}
	}
	m.Instructions++
	next, err := m.exec(in, pc)
	if err != nil {
		return err
	}
	m.PC = next
	return nil
}

// ExecInst executes one decoded instruction as if it were located at pc,
// updating registers, memory, cycle counts, and halt state, and returns the
// address of the next instruction. It runs the same exec as the reference
// step, for the interpret-in-place runtime (which executes compressed
// instructions at virtual addresses without materializing them in memory).
func (m *Machine) ExecInst(in isa.Inst, pc uint32) (uint32, error) {
	m.Instructions++
	return m.exec(&in, pc)
}

// exec is ExecInst without the instruction-count bump; stepSlow and the
// fast path's uSlow case count before they call it.
func (m *Machine) exec(in *isa.Inst, pc uint32) (uint32, error) {
	next := pc + isa.WordSize

	switch in.Format {
	case isa.FormatPal:
		redirected, err := m.syscall(in.Func)
		if err != nil {
			return 0, err
		}
		m.Cycles += CostSyscall
		if m.Halted || redirected {
			return m.PC, nil
		}
	case isa.FormatMem:
		addr := uint32(m.Reg[in.RB] + in.Disp)
		switch in.Op {
		case isa.OpLDA:
			m.setReg(in.RA, m.Reg[in.RB]+in.Disp)
			m.Cycles += CostOp
		case isa.OpLDAH:
			m.setReg(in.RA, m.Reg[in.RB]+in.Disp<<16)
			m.Cycles += CostOp
		case isa.OpLDW:
			v, err := m.ReadWord(addr)
			if err != nil {
				return 0, err
			}
			m.setReg(in.RA, int32(v))
			m.Cycles += CostMem
		case isa.OpSTW:
			if err := m.WriteWord(addr, uint32(m.Reg[in.RA])); err != nil {
				return 0, err
			}
			m.Cycles += CostMem
		case isa.OpLDB:
			if addr >= objfile.MemSize {
				return 0, &TrapError{pc, fmt.Sprintf("byte read out of bounds at %#x", addr)}
			}
			m.setReg(in.RA, int32(m.loadByte(addr)))
			m.Cycles += CostMem
		case isa.OpSTB:
			if addr >= objfile.MemSize {
				return 0, &TrapError{pc, fmt.Sprintf("byte write out of bounds at %#x", addr)}
			}
			m.storeByte(addr, byte(m.Reg[in.RA]))
			if idx := int(addr&^3-objfile.TextBase) / isa.WordSize; idx >= 0 && idx < len(m.icache) {
				m.icache[idx].kind = uInvalid
				m.Telem.InvalidatedWords++
			}
			m.Cycles += CostMem
		}
	case isa.FormatBranch:
		taken := true
		switch in.Op {
		case isa.OpBSRX:
			// Virtual opcode: legal only inside compressed streams.
			return 0, &TrapError{pc, "virtual opcode BSRX in executable memory"}
		case isa.OpBR, isa.OpBSR:
			m.setReg(in.RA, int32(next))
		case isa.OpBEQ:
			taken = m.Reg[in.RA] == 0
		case isa.OpBNE:
			taken = m.Reg[in.RA] != 0
		case isa.OpBLT:
			taken = m.Reg[in.RA] < 0
		case isa.OpBLE:
			taken = m.Reg[in.RA] <= 0
		case isa.OpBGT:
			taken = m.Reg[in.RA] > 0
		case isa.OpBGE:
			taken = m.Reg[in.RA] >= 0
		}
		if taken {
			next = uint32(int64(next) + int64(in.Disp)*isa.WordSize)
			m.Cycles += CostBranchTaken
		} else {
			m.Cycles += CostBranchNotTaken
		}
	case isa.FormatOpReg, isa.FormatOpLit:
		var b int32
		if in.Format == isa.FormatOpLit {
			b = int32(in.Lit)
		} else {
			b = m.Reg[in.RB]
		}
		v, err := m.operate(pc, in.Op, in.Func, m.Reg[in.RA], b)
		if err != nil {
			return 0, err
		}
		m.setReg(in.RC, v)
		m.Cycles += CostOp
	case isa.FormatJump:
		if in.Op != isa.OpJump {
			return 0, &TrapError{pc, "virtual opcode JSRX in executable memory"}
		}
		target := uint32(m.Reg[in.RB]) &^ 3
		m.setReg(in.RA, int32(next))
		next = target
		m.Cycles += CostJump
	case isa.FormatIllegal:
		return 0, &TrapError{pc, fmt.Sprintf("illegal instruction %#08x", isa.Encode(*in))}
	}
	return next, nil
}

func (m *Machine) setReg(r uint32, v int32) {
	if r != isa.RegZero {
		m.Reg[r] = v
	}
}

func (m *Machine) operate(pc, op, fn uint32, a, b int32) (int32, error) {
	boolVal := func(cond bool) int32 {
		if cond {
			return 1
		}
		return 0
	}
	switch op {
	case isa.OpIntA:
		switch fn {
		case isa.FnADD:
			return a + b, nil
		case isa.FnSUB:
			return a - b, nil
		case isa.FnCMPEQ:
			return boolVal(a == b), nil
		case isa.FnCMPLT:
			return boolVal(a < b), nil
		case isa.FnCMPLE:
			return boolVal(a <= b), nil
		case isa.FnCMPULT:
			return boolVal(uint32(a) < uint32(b)), nil
		case isa.FnCMPULE:
			return boolVal(uint32(a) <= uint32(b)), nil
		}
	case isa.OpIntL:
		switch fn {
		case isa.FnAND:
			return a & b, nil
		case isa.FnBIC:
			return a &^ b, nil
		case isa.FnBIS:
			return a | b, nil
		case isa.FnORNOT:
			return a | ^b, nil
		case isa.FnXOR:
			return a ^ b, nil
		case isa.FnEQV:
			return a ^ ^b, nil
		}
	case isa.OpIntS:
		sh := uint32(b) & 31
		switch fn {
		case isa.FnSLL:
			return a << sh, nil
		case isa.FnSRL:
			return int32(uint32(a) >> sh), nil
		case isa.FnSRA:
			return a >> sh, nil
		}
	case isa.OpIntM:
		switch fn {
		case isa.FnMUL:
			return int32(int64(a) * int64(b)), nil
		case isa.FnMULH:
			return int32(int64(a) * int64(b) >> 32), nil
		case isa.FnDIV:
			if b == 0 {
				return 0, &TrapError{pc, "integer division by zero"}
			}
			return a / b, nil
		case isa.FnMOD:
			if b == 0 {
				return 0, &TrapError{pc, "integer remainder by zero"}
			}
			return a % b, nil
		}
	}
	return 0, &TrapError{pc, fmt.Sprintf("unknown operate op=%#x func=%#x", op, fn)}
}

// syscall executes a Pal-format system call. It reports whether control was
// redirected (longjmp), in which case m.PC is already final.
func (m *Machine) syscall(fn uint32) (redirected bool, err error) {
	switch fn {
	case isa.SysHALT:
		m.Halted = true
		m.Status = m.Reg[isa.RegA0]
	case isa.SysGETC:
		if m.inPos < len(m.Input) {
			m.Reg[isa.RegV0] = int32(m.Input[m.inPos])
			m.inPos++
		} else {
			m.Reg[isa.RegV0] = -1
		}
	case isa.SysPUTC:
		m.Output = append(m.Output, byte(m.Reg[isa.RegA0]))
		if m.StackCheck {
			m.SPTrace = append(m.SPTrace, m.Reg[isa.RegSP])
		}
	case isa.SysSETJMP:
		m.jmp = &jmpState{reg: m.Reg, pc: m.PC + isa.WordSize, set: true}
		m.Reg[isa.RegV0] = 0
	case isa.SysLNGJMP:
		if m.jmp == nil || !m.jmp.set {
			return false, &TrapError{m.PC, "longjmp without setjmp"}
		}
		m.Reg = m.jmp.reg
		m.Reg[isa.RegV0] = 1
		m.PC = m.jmp.pc
		return true, nil
	case isa.SysIMB:
		// Architectural instruction-memory barrier; the decode cache is
		// already invalidated on writes, so this only costs cycles.
		m.Cycles += 50
	default:
		return false, &TrapError{m.PC, fmt.Sprintf("unknown syscall %d", fn)}
	}
	return false, nil
}
