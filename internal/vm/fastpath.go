package vm

// Predecoded fast path. The decode cache stores a flat 8-byte µop per text
// word — an operation kind plus resolved register numbers and a pre-folded
// immediate — so executing a cached instruction is one dense switch on the
// kind, and dispatch runs whole blocks of them in one loop (see dispatch).
// Predecode happens at most once per cache fill; the invalidation points
// (WriteWord, STB, InvalidateRange) drop the µop, so self-modifying code is
// re-predecoded, while WritePredecoded installs words together with µops
// built ahead of time (the decompressor's memoized buffer refills and its
// dispatch jumps).
//
// The µop encoding folds the OpLit/OpReg distinction away: a literal operand
// is represented as rb = RegZero (hardwired zero) plus the literal in imm, so
// every ALU kind computes its b operand as Reg[rb] + imm with no branch.
// LDAH folds its <<16 into imm the same way, merging with LDA.
//
// Everything rare or faulting — system calls via uSys aside — keeps the
// uSlow kind, which re-decodes its word from memory and delegates to exec,
// preserving the exact trap messages and cycle charges of the reference
// interpreter. The reference path itself (stepSlow) never reads the µop
// cache: it decodes each fetched word through a memo that hits only on an
// equal word (see decodeMemo). The fast path is cycle-for-cycle identical
// to stepSlow; TestFastPathEquivalence checks that over randomized
// programs, and Machine.DisableFastPath forces the reference path at
// runtime.

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/objfile"
)

// µop kinds. uInvalid is deliberately the zero value: a zeroed or
// invalidated cache entry reads as "not yet predecoded", so the hot loop
// needs no separate valid flag.
const (
	uInvalid uint8 = iota // cache entry empty or invalidated
	uSlow                 // traps, virtual opcodes, anything irregular
	uSys                  // pal: syscall, func in imm

	uLDA // ra <- Reg[rb] + imm (LDAH pre-shifts imm at predecode)
	uLDW
	uSTW
	uLDB
	uSTB

	uBR  // br/bsr: link ra, jump; imm is byte displacement
	uBEQ // conditional branches test Reg[ra]
	uBNE
	uBLT
	uBLE
	uBGT
	uBGE
	uJump

	uAdd // ALU kinds: rc <- Reg[ra] op (Reg[rb] + imm)
	uSub
	uCmpEQ
	uCmpLT
	uCmpLE
	uCmpULT
	uCmpULE
	uAnd
	uBic
	uBis
	uOrnot
	uXor
	uEqv
	uSll
	uSrl
	uSra
	uMul
	uMulh
	uDiv
	uMod
)

const regZero = uint8(isa.RegZero)

// aluKind maps an operate-group (op, func) pair to its µop kind, or uSlow
// for unknown function codes (which must trap with the reference message).
func aluKind(op, fn uint32) uint8 {
	switch op {
	case isa.OpIntA:
		switch fn {
		case isa.FnADD:
			return uAdd
		case isa.FnSUB:
			return uSub
		case isa.FnCMPEQ:
			return uCmpEQ
		case isa.FnCMPLT:
			return uCmpLT
		case isa.FnCMPLE:
			return uCmpLE
		case isa.FnCMPULT:
			return uCmpULT
		case isa.FnCMPULE:
			return uCmpULE
		}
	case isa.OpIntL:
		switch fn {
		case isa.FnAND:
			return uAnd
		case isa.FnBIC:
			return uBic
		case isa.FnBIS:
			return uBis
		case isa.FnORNOT:
			return uOrnot
		case isa.FnXOR:
			return uXor
		case isa.FnEQV:
			return uEqv
		}
	case isa.OpIntS:
		switch fn {
		case isa.FnSLL:
			return uSll
		case isa.FnSRL:
			return uSrl
		case isa.FnSRA:
			return uSra
		}
	case isa.OpIntM:
		switch fn {
		case isa.FnMUL:
			return uMul
		case isa.FnMULH:
			return uMulh
		case isa.FnDIV:
			return uDiv
		case isa.FnMOD:
			return uMod
		}
	}
	return uSlow
}

// predecode fills c with the µop form of in; the non-uInvalid kind it
// assigns is what marks the entry live.
func predecode(c *cachedInst, in isa.Inst) {
	c.kind = uSlow
	c.ra, c.rb, c.rc = uint8(in.RA), uint8(in.RB), uint8(in.RC)
	c.imm = 0
	switch in.Format {
	case isa.FormatPal:
		c.kind = uSys
		c.imm = int32(in.Func)
	case isa.FormatMem:
		c.imm = in.Disp
		switch in.Op {
		case isa.OpLDA:
			c.kind = uLDA
		case isa.OpLDAH:
			c.kind = uLDA
			c.imm = in.Disp << 16
		case isa.OpLDW:
			c.kind = uLDW
		case isa.OpSTW:
			c.kind = uSTW
		case isa.OpLDB:
			c.kind = uLDB
		case isa.OpSTB:
			c.kind = uSTB
		}
	case isa.FormatBranch:
		switch in.Op {
		case isa.OpBR, isa.OpBSR:
			c.kind = uBR
		case isa.OpBEQ:
			c.kind = uBEQ
		case isa.OpBNE:
			c.kind = uBNE
		case isa.OpBLT:
			c.kind = uBLT
		case isa.OpBLE:
			c.kind = uBLE
		case isa.OpBGT:
			c.kind = uBGT
		case isa.OpBGE:
			c.kind = uBGE
			// OpBSRX stays uSlow: it must trap via exec.
		}
		c.imm = in.Disp * isa.WordSize
	case isa.FormatOpReg:
		c.kind = aluKind(in.Op, in.Func)
	case isa.FormatOpLit:
		// Literal operand: rb = zero register, literal folded into imm, so
		// the fast path's b = Reg[rb] + imm yields the literal.
		c.rb = regZero
		c.imm = int32(in.Lit)
		c.kind = aluKind(in.Op, in.Func)
	case isa.FormatJump:
		if in.Op == isa.OpJump {
			c.kind = uJump
		}
	}
}

// Predecoded is a run of instruction words together with their 8-byte µop
// forms, built once by Predecode and stored any number of times by
// WritePredecoded. The decompression runtime keeps one per memoized region
// and one per dispatch-jump offset, so a buffer refill copies 12 bytes per
// word instead of invalidating every word and predecoding it again when it
// runs.
type Predecoded struct {
	words []uint32
	ops   []cachedInst
}

// Predecode builds the Predecoded form of words.
func Predecode(words []uint32) *Predecoded {
	p := &Predecoded{words: append([]uint32(nil), words...), ops: make([]cachedInst, len(words))}
	for k, w := range words {
		predecode(&p.ops[k], isa.Decode(w))
	}
	return p
}

// Len reports the number of words in p.
func (p *Predecoded) Len() int { return len(p.ops) }

// WritePredecoded stores p's words at addr, addr+4, ... and installs their
// µops in the decode cache in one pass. Memory, traps and every simulated
// counter end up exactly as after a WriteWord of each word in order: an
// unaligned addr traps before anything is written, and a run past the end
// of memory writes the words that fit and traps at the first that does not.
// Only the host telemetry differs: no entry is invalidated, and none is
// predecoded again when it runs.
func (m *Machine) WritePredecoded(addr uint32, p *Predecoded) error {
	n := len(p.ops)
	fit := 0
	if addr%isa.WordSize == 0 && addr < objfile.MemSize {
		fit = min(n, int(objfile.MemSize-addr)/isa.WordSize)
	}
	if fit > 0 {
		m.storeWords(addr, p.words[:fit])
		// Copy the µops of the words that land in text.
		first := (int(addr) - int(objfile.TextBase)) / isa.WordSize
		lo, hi := max(0, -first), min(fit, len(m.icache)-first)
		if lo < hi {
			copy(m.icache[first+lo:first+hi], p.ops[lo:hi])
		}
	}
	if fit < n {
		// The reference trap: WriteWord faults on this word before storing it.
		return m.WriteWord(addr+uint32(fit*isa.WordSize), p.words[fit])
	}
	return nil
}

// Step executes a single instruction (or a hook entry): it is the block
// dispatch loop below with a budget of one instruction.
func (m *Machine) Step() error {
	return m.dispatch(m.Instructions + 1)
}

// dispatch executes from m.PC until the instruction count reaches limit,
// the machine halts or traps, or control reaches a PC the block loop does
// not handle. A PC in the hook's range enters the hook; an unaligned PC, one
// outside text, or DisableFastPath takes one reference step (stepSlow).
// Any other PC starts the block loop, which keeps pc and the decode cache in
// locals, charges profiling and the icache model, and executes cached µops
// through one dense switch. It writes m.PC back only before something can
// observe it: a trap, exec for a uSlow µop, a system call, and its own
// exit. It exits once limit is reached or the next PC is in the hook's
// range, outside text or unaligned, so the caller's next dispatch takes the
// matching path above. The µop kind is re-read for every instruction, so a
// store into the running block is re-predecoded exactly as on the reference
// path. Simulated state — registers, memory, cycles, instruction counts,
// profiles, traps — is identical to stepping through stepSlow one
// instruction at a time.
func (m *Machine) dispatch(limit uint64) error {
	pc := m.PC
	var hookLo, hookSpan uint32
	if h := m.Hook; h != nil {
		if h != m.hookSrc {
			lo, hi := h.Range()
			m.hookLo, m.hookSpan, m.hookSrc = lo, 0, h
			if hi > lo {
				m.hookSpan = hi - lo
			}
		}
		hookLo, hookSpan = m.hookLo, m.hookSpan
		if pc-hookLo < hookSpan {
			return h.Enter(m)
		}
	}
	ic := m.icache
	i := textIndex(pc)
	if i >= uint(len(ic)) || m.DisableFastPath {
		return m.stepSlow(pc)
	}
	prof, ick := m.Profile, m.ICache
	counted := prof != nil || ick != nil
	budget := limit - m.Instructions // >= 1: Run checks the limit first, Step passes Instructions+1
	for {
		c := &ic[i]
		if c.kind == uInvalid {
			predecode(c, isa.Decode(m.loadWord(pc)))
			m.Telem.Predecodes++
		}
		if counted {
			if ick != nil {
				m.Cycles += ick.access(pc)
			}
			if i < uint(len(prof)) {
				prof[i]++
			}
		}
		m.Instructions++
		next := pc + isa.WordSize
		// Masking the (already in-range) register numbers lets the compiler
		// drop the bounds check on every Reg access below.
		ra, rb, rc := c.ra&31, c.rb&31, c.rc&31
		switch c.kind {
		case uSlow:
			m.Telem.SlowDispatches++
			m.PC = pc
			// The entry is live, so memory still holds the word it was
			// predecoded from (see cachedInst).
			in := isa.Decode(m.loadWord(pc))
			nx, err := m.exec(&in, pc)
			if err != nil {
				return err
			}
			next = nx
		case uSys:
			m.PC = pc
			redirected, err := m.syscall(uint32(c.imm))
			if err != nil {
				return err
			}
			m.Cycles += CostSyscall
			if m.Halted {
				return nil // m.PC stays at the halt
			}
			if redirected {
				next = m.PC
			}

		case uLDA:
			if ra != regZero {
				m.Reg[ra] = m.Reg[rb] + c.imm
			}
			m.Cycles += CostOp
		case uLDW:
			addr := uint32(m.Reg[rb] + c.imm)
			if addr%isa.WordSize != 0 || addr > objfile.MemSize-4 {
				m.PC = pc
				_, err := m.ReadWord(addr) // reference trap message
				return err
			}
			if ra != regZero {
				m.Reg[ra] = int32(m.loadWord(addr))
			}
			m.Cycles += CostMem
		case uSTW:
			addr := uint32(m.Reg[rb] + c.imm)
			if addr%isa.WordSize != 0 || addr > objfile.MemSize-4 {
				m.PC = pc
				return m.WriteWord(addr, uint32(m.Reg[ra]))
			}
			m.storeWord(addr, uint32(m.Reg[ra]))
			if idx := int(addr-objfile.TextBase) / isa.WordSize; idx >= 0 && idx < len(ic) {
				ic[idx].kind = uInvalid
				m.Telem.InvalidatedWords++
			}
			m.Cycles += CostMem
		case uLDB:
			addr := uint32(m.Reg[rb] + c.imm)
			if addr >= objfile.MemSize {
				m.PC = pc
				return &TrapError{pc, fmt.Sprintf("byte read out of bounds at %#x", addr)}
			}
			if ra != regZero {
				m.Reg[ra] = int32(m.loadByte(addr))
			}
			m.Cycles += CostMem
		case uSTB:
			addr := uint32(m.Reg[rb] + c.imm)
			if addr >= objfile.MemSize {
				m.PC = pc
				return &TrapError{pc, fmt.Sprintf("byte write out of bounds at %#x", addr)}
			}
			m.storeByte(addr, byte(m.Reg[ra]))
			if idx := int(addr&^3-objfile.TextBase) / isa.WordSize; idx >= 0 && idx < len(ic) {
				ic[idx].kind = uInvalid
				m.Telem.InvalidatedWords++
			}
			m.Cycles += CostMem

		case uBR:
			if ra != regZero {
				m.Reg[ra] = int32(next)
			}
			next += uint32(c.imm)
			m.Cycles += CostBranchTaken
		case uBEQ:
			if m.Reg[ra] == 0 {
				next += uint32(c.imm)
				m.Cycles += CostBranchTaken
			} else {
				m.Cycles += CostBranchNotTaken
			}
		case uBNE:
			if m.Reg[ra] != 0 {
				next += uint32(c.imm)
				m.Cycles += CostBranchTaken
			} else {
				m.Cycles += CostBranchNotTaken
			}
		case uBLT:
			if m.Reg[ra] < 0 {
				next += uint32(c.imm)
				m.Cycles += CostBranchTaken
			} else {
				m.Cycles += CostBranchNotTaken
			}
		case uBLE:
			if m.Reg[ra] <= 0 {
				next += uint32(c.imm)
				m.Cycles += CostBranchTaken
			} else {
				m.Cycles += CostBranchNotTaken
			}
		case uBGT:
			if m.Reg[ra] > 0 {
				next += uint32(c.imm)
				m.Cycles += CostBranchTaken
			} else {
				m.Cycles += CostBranchNotTaken
			}
		case uBGE:
			if m.Reg[ra] >= 0 {
				next += uint32(c.imm)
				m.Cycles += CostBranchTaken
			} else {
				m.Cycles += CostBranchNotTaken
			}
		case uJump:
			target := uint32(m.Reg[rb]) &^ 3
			if ra != regZero {
				m.Reg[ra] = int32(next)
			}
			next = target
			m.Cycles += CostJump

		case uAdd:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] + m.Reg[rb] + c.imm
			}
			m.Cycles += CostOp
		case uSub:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] - (m.Reg[rb] + c.imm)
			}
			m.Cycles += CostOp
		case uCmpEQ:
			if rc != regZero {
				m.Reg[rc] = boolReg(m.Reg[ra] == m.Reg[rb]+c.imm)
			}
			m.Cycles += CostOp
		case uCmpLT:
			if rc != regZero {
				m.Reg[rc] = boolReg(m.Reg[ra] < m.Reg[rb]+c.imm)
			}
			m.Cycles += CostOp
		case uCmpLE:
			if rc != regZero {
				m.Reg[rc] = boolReg(m.Reg[ra] <= m.Reg[rb]+c.imm)
			}
			m.Cycles += CostOp
		case uCmpULT:
			if rc != regZero {
				m.Reg[rc] = boolReg(uint32(m.Reg[ra]) < uint32(m.Reg[rb]+c.imm))
			}
			m.Cycles += CostOp
		case uCmpULE:
			if rc != regZero {
				m.Reg[rc] = boolReg(uint32(m.Reg[ra]) <= uint32(m.Reg[rb]+c.imm))
			}
			m.Cycles += CostOp
		case uAnd:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] & (m.Reg[rb] + c.imm)
			}
			m.Cycles += CostOp
		case uBic:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] &^ (m.Reg[rb] + c.imm)
			}
			m.Cycles += CostOp
		case uBis:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] | (m.Reg[rb] + c.imm)
			}
			m.Cycles += CostOp
		case uOrnot:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] | ^(m.Reg[rb] + c.imm)
			}
			m.Cycles += CostOp
		case uXor:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] ^ (m.Reg[rb] + c.imm)
			}
			m.Cycles += CostOp
		case uEqv:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] ^ ^(m.Reg[rb] + c.imm)
			}
			m.Cycles += CostOp
		case uSll:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] << (uint32(m.Reg[rb]+c.imm) & 31)
			}
			m.Cycles += CostOp
		case uSrl:
			if rc != regZero {
				m.Reg[rc] = int32(uint32(m.Reg[ra]) >> (uint32(m.Reg[rb]+c.imm) & 31))
			}
			m.Cycles += CostOp
		case uSra:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] >> (uint32(m.Reg[rb]+c.imm) & 31)
			}
			m.Cycles += CostOp
		case uMul:
			if rc != regZero {
				m.Reg[rc] = int32(int64(m.Reg[ra]) * int64(m.Reg[rb]+c.imm))
			}
			m.Cycles += CostOp
		case uMulh:
			if rc != regZero {
				m.Reg[rc] = int32(int64(m.Reg[ra]) * int64(m.Reg[rb]+c.imm) >> 32)
			}
			m.Cycles += CostOp
		case uDiv:
			b := m.Reg[rb] + c.imm
			if b == 0 {
				m.PC = pc
				return &TrapError{pc, "integer division by zero"}
			}
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] / b
			}
			m.Cycles += CostOp
		case uMod:
			b := m.Reg[rb] + c.imm
			if b == 0 {
				m.PC = pc
				return &TrapError{pc, "integer remainder by zero"}
			}
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] % b
			}
			m.Cycles += CostOp
		}
		pc = next
		i = textIndex(pc)
		budget--
		if budget == 0 || i >= uint(len(ic)) || pc-hookLo < hookSpan {
			m.PC = pc
			return nil
		}
	}
}

// textIndex maps pc to its decode-cache index. The rotate moves the two
// alignment bits to the top, so an unaligned pc, like one below TextBase,
// yields an index past any text extent and one bounds check covers both.
func textIndex(pc uint32) uint {
	return uint(bits.RotateLeft32(pc-objfile.TextBase, -2))
}

func boolReg(cond bool) int32 {
	if cond {
		return 1
	}
	return 0
}
