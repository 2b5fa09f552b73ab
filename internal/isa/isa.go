// Package isa defines EM32, an Alpha-flavoured 32-bit RISC instruction set
// used as the target architecture for the profile-guided code compression
// system. EM32 mirrors the Compaq Alpha's instruction taxonomy — the test
// platform of Debray & Evans (PLDI 2002) — closely enough that the paper's
// split-stream compression applies unchanged: every instruction is a 32-bit
// word composed of typed fields, and the set of field types across all
// formats yields exactly fifteen operand streams.
//
// Formats (bit 31 is the most significant):
//
//	Pal:     op[31:26] func[25:0]
//	Mem:     op[31:26] ra[25:21] rb[20:16] disp[15:0]   (disp: signed bytes)
//	Branch:  op[31:26] ra[25:21] disp[20:0]             (disp: signed words)
//	OpReg:   op[31:26] ra[25:21] rb[20:16] sbz[15:13] 0[12] func[11:5] rc[4:0]
//	OpLit:   op[31:26] ra[25:21] lit[20:13]        1[12] func[11:5] rc[4:0]
//	Jump:    op[31:26] ra[25:21] rb[20:16] jfunc[15:14] hint[13:0]
//
// The machine has 32 general registers of 32 bits each; R31 always reads as
// zero. Software conventions follow the Alpha calling standard: R0 carries
// return values, R16–R21 carry arguments, R26 is the return-address register,
// R30 the stack pointer.
package isa

import "fmt"

// WordSize is the size in bytes of one EM32 instruction or data word.
const WordSize = 4

// Register numbers with conventional roles (Alpha calling standard).
const (
	RegV0   = 0  // return value
	RegT0   = 1  // first caller-saved temporary
	RegS0   = 9  // first callee-saved register
	RegFP   = 15 // frame pointer
	RegA0   = 16 // first argument register
	RegA1   = 17
	RegA2   = 18
	RegA3   = 19
	RegA4   = 20
	RegA5   = 21
	RegRA   = 26 // return address
	RegPV   = 27 // procedure value (indirect call target)
	RegAT   = 28 // assembler temporary, reserved for rewriting tools
	RegGP   = 29 // global pointer
	RegSP   = 30 // stack pointer
	RegZero = 31 // hardwired zero
)

// NumRegs is the number of general-purpose registers.
const NumRegs = 32

// Format identifies the encoding format of an instruction.
type Format uint8

// Instruction formats.
const (
	FormatPal Format = iota
	FormatMem
	FormatBranch
	FormatOpReg
	FormatOpLit
	FormatJump
	FormatIllegal
)

var formatNames = [...]string{
	FormatPal:     "Pal",
	FormatMem:     "Mem",
	FormatBranch:  "Branch",
	FormatOpReg:   "OpReg",
	FormatOpLit:   "OpLit",
	FormatJump:    "Jump",
	FormatIllegal: "Illegal",
}

func (f Format) String() string {
	if int(f) < len(formatNames) {
		return formatNames[f]
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

// Primary opcodes (6 bits).
const (
	OpPal uint32 = 0x00 // system call / privileged

	// Memory format.
	OpLDA  uint32 = 0x08 // ra <- rb + disp
	OpLDAH uint32 = 0x09 // ra <- rb + (disp << 16)
	OpLDB  uint32 = 0x0A // ra <- zeroext(mem8[rb + disp])
	OpSTB  uint32 = 0x0E // mem8[rb + disp] <- ra
	OpLDW  uint32 = 0x28 // ra <- mem32[rb + disp]
	OpSTW  uint32 = 0x2C // mem32[rb + disp] <- ra

	// Operate groups (OpReg / OpLit formats share primary opcodes).
	OpIntA uint32 = 0x10 // arithmetic and compares
	OpIntL uint32 = 0x11 // logical
	OpIntS uint32 = 0x12 // shifts
	OpIntM uint32 = 0x13 // multiply / divide

	// Jump format.
	OpJump uint32 = 0x1A

	// Branch format.
	OpBR  uint32 = 0x30 // unconditional: ra <- retaddr, pc += disp
	OpBSR uint32 = 0x34 // subroutine:    ra <- retaddr, pc += disp
	OpBEQ uint32 = 0x38
	OpBNE uint32 = 0x39
	OpBLT uint32 = 0x3A
	OpBLE uint32 = 0x3B
	OpBGT uint32 = 0x3C
	OpBGE uint32 = 0x3D

	// OpIllegal is a reserved opcode; the all-ones word encodes the
	// decompression sentinel that terminates every compressed region.
	OpIllegal uint32 = 0x3F

	// Virtual opcodes that appear only inside compressed instruction
	// streams, never in executable memory. The decompressor expands each
	// into two instructions in the runtime buffer (paper, §2.2): a call to
	// CreateStub followed by the actual control transfer.
	OpBSRX uint32 = 0x35 // expanded direct call: bsr CreateStub; br target
	OpJSRX uint32 = 0x1B // expanded indirect call: bsr CreateStub; jmp (rb)
)

// Function codes for the OpIntA group (7 bits). The sparse, Alpha-like
// values give the func-code stream a realistic, skewed value distribution.
const (
	FnADD    uint32 = 0x00
	FnSUB    uint32 = 0x09
	FnCMPULT uint32 = 0x1D
	FnCMPEQ  uint32 = 0x2D
	FnCMPULE uint32 = 0x3D
	FnCMPLT  uint32 = 0x4D
	FnCMPLE  uint32 = 0x6D
)

// Function codes for the OpIntL group.
const (
	FnAND   uint32 = 0x00
	FnBIC   uint32 = 0x08
	FnBIS   uint32 = 0x20 // inclusive or
	FnORNOT uint32 = 0x28
	FnXOR   uint32 = 0x40
	FnEQV   uint32 = 0x48
)

// Function codes for the OpIntS group.
const (
	FnSRL uint32 = 0x34
	FnSLL uint32 = 0x39
	FnSRA uint32 = 0x3C
)

// Function codes for the OpIntM group.
const (
	FnMUL  uint32 = 0x00
	FnDIV  uint32 = 0x10 // signed division (EM32 extension; Alpha lacks it)
	FnMOD  uint32 = 0x12 // signed remainder (EM32 extension)
	FnMULH uint32 = 0x30 // high 32 bits of the 64-bit product
)

// Jump-format function codes (2 bits).
const (
	JmpJMP uint32 = 0 // pc <- rb;  ra <- retaddr
	JmpJSR uint32 = 1 // subroutine call through a register
	JmpRET uint32 = 2 // return
	JmpCO  uint32 = 3 // coroutine linkage (unused, reserved)
)

// System-call function codes (Pal format).
const (
	SysHALT   uint32 = 0 // terminate; exit status in R16
	SysGETC   uint32 = 1 // R0 <- next input byte, or -1 at end of input
	SysPUTC   uint32 = 2 // emit low byte of R16 to the output stream
	SysSETJMP uint32 = 3 // save continuation; R0 <- 0 (1 after longjmp)
	SysLNGJMP uint32 = 4 // restore continuation saved by SETJMP
	SysIMB    uint32 = 5 // instruction-memory barrier (icache flush)
)

// Sentinel is the illegal instruction word appended to every compressed
// region; the decompressor stops when it decodes this word (paper, §2.1).
const Sentinel uint32 = 0xFFFFFFFF

// Inst is a decoded EM32 instruction. Fields not used by the instruction's
// format are zero. Disp is sign-extended; RA, RB, RC, Lit, Func, Hint are
// the raw field values.
type Inst struct {
	Op     uint32 // primary opcode (6 bits)
	Format Format
	RA     uint32 // register field a (5 bits)
	RB     uint32 // register field b (5 bits)
	RC     uint32 // register field c (5 bits, operate formats)
	Disp   int32  // sign-extended displacement (Mem: bytes, Branch: words)
	Lit    uint32 // 8-bit literal (OpLit)
	Func   uint32 // function code (operate: 7 bits, Pal: 26 bits)
	JFunc  uint32 // jump subcode (2 bits)
	Hint   uint32 // jump hint (14 bits)
}

// FormatOf reports the encoding format selected by a primary opcode. For the
// operate group the reg/lit distinction depends on bit 12 of the word, so
// FormatOf returns FormatOpReg; Decode refines it.
func FormatOf(op uint32) Format {
	switch op {
	case OpPal:
		return FormatPal
	case OpLDA, OpLDAH, OpLDB, OpSTB, OpLDW, OpSTW:
		return FormatMem
	case OpIntA, OpIntL, OpIntS, OpIntM:
		return FormatOpReg
	case OpJump, OpJSRX:
		return FormatJump
	case OpBR, OpBSR, OpBSRX, OpBEQ, OpBNE, OpBLT, OpBLE, OpBGT, OpBGE:
		return FormatBranch
	default:
		return FormatIllegal
	}
}

// IsCondBranchOp reports whether op is a conditional branch.
func IsCondBranchOp(op uint32) bool { return op >= OpBEQ && op <= OpBGE }

// Encode packs the instruction into a 32-bit word. It panics if a field is
// out of range for the format, since that always indicates a bug in the
// caller rather than bad input data.
func Encode(in Inst) uint32 {
	check := func(v uint32, bits uint, what string) {
		if v >= 1<<bits {
			panic(fmt.Sprintf("isa.Encode: %s value %d exceeds %d bits (op %#x)", what, v, bits, in.Op))
		}
	}
	check(in.Op, 6, "opcode")
	w := in.Op << 26
	switch in.Format {
	case FormatPal:
		check(in.Func, 26, "pal func")
		w |= in.Func
	case FormatMem:
		check(in.RA, 5, "ra")
		check(in.RB, 5, "rb")
		if in.Disp < -(1<<15) || in.Disp >= 1<<15 {
			panic(fmt.Sprintf("isa.Encode: memory displacement %d exceeds 16 bits", in.Disp))
		}
		w |= in.RA<<21 | in.RB<<16 | uint32(in.Disp)&0xFFFF
	case FormatBranch:
		check(in.RA, 5, "ra")
		if in.Disp < -(1<<20) || in.Disp >= 1<<20 {
			panic(fmt.Sprintf("isa.Encode: branch displacement %d exceeds 21 bits", in.Disp))
		}
		w |= in.RA<<21 | uint32(in.Disp)&0x1FFFFF
	case FormatOpReg:
		check(in.RA, 5, "ra")
		check(in.RB, 5, "rb")
		check(in.RC, 5, "rc")
		check(in.Func, 7, "func")
		w |= in.RA<<21 | in.RB<<16 | in.Func<<5 | in.RC
	case FormatOpLit:
		check(in.RA, 5, "ra")
		check(in.Lit, 8, "lit")
		check(in.RC, 5, "rc")
		check(in.Func, 7, "func")
		w |= in.RA<<21 | in.Lit<<13 | 1<<12 | in.Func<<5 | in.RC
	case FormatJump:
		check(in.RA, 5, "ra")
		check(in.RB, 5, "rb")
		check(in.JFunc, 2, "jfunc")
		check(in.Hint, 14, "hint")
		w |= in.RA<<21 | in.RB<<16 | in.JFunc<<14 | in.Hint
	case FormatIllegal:
		return Sentinel
	default:
		panic(fmt.Sprintf("isa.Encode: unknown format %v", in.Format))
	}
	return w
}

// Decode unpacks a 32-bit word into its instruction fields. Words with a
// reserved primary opcode decode to FormatIllegal; executing one traps.
func Decode(w uint32) Inst {
	op := w >> 26
	in := Inst{Op: op, Format: FormatOf(op)}
	switch in.Format {
	case FormatPal:
		in.Func = w & 0x03FFFFFF
	case FormatMem:
		in.RA = w >> 21 & 31
		in.RB = w >> 16 & 31
		in.Disp = int32(int16(w & 0xFFFF))
	case FormatBranch:
		in.RA = w >> 21 & 31
		in.Disp = int32(w&0x1FFFFF) << 11 >> 11
	case FormatOpReg:
		in.RA = w >> 21 & 31
		in.Func = w >> 5 & 0x7F
		in.RC = w & 31
		if w>>12&1 == 1 {
			in.Format = FormatOpLit
			in.Lit = w >> 13 & 0xFF
		} else {
			in.RB = w >> 16 & 31
		}
	case FormatJump:
		in.RA = w >> 21 & 31
		in.RB = w >> 16 & 31
		in.JFunc = w >> 14 & 3
		in.Hint = w & 0x3FFF
	}
	return in
}

// Convenience constructors used throughout the toolchain.

// Mem builds a memory-format instruction.
func Mem(op, ra, rb uint32, disp int32) Inst {
	return Inst{Op: op, Format: FormatMem, RA: ra, RB: rb, Disp: disp}
}

// Br builds a branch-format instruction with a word displacement.
func Br(op, ra uint32, disp int32) Inst {
	return Inst{Op: op, Format: FormatBranch, RA: ra, Disp: disp}
}

// OpR builds a register-operand operate instruction rc <- ra OP rb.
func OpR(group, ra, rb, fn, rc uint32) Inst {
	return Inst{Op: group, Format: FormatOpReg, RA: ra, RB: rb, Func: fn, RC: rc}
}

// OpL builds a literal-operand operate instruction rc <- ra OP lit.
func OpL(group, ra, lit, fn, rc uint32) Inst {
	return Inst{Op: group, Format: FormatOpLit, RA: ra, Lit: lit, Func: fn, RC: rc}
}

// Jump builds a jump-format instruction.
func Jump(jfunc, ra, rb, hint uint32) Inst {
	return Inst{Op: OpJump, Format: FormatJump, RA: ra, RB: rb, JFunc: jfunc, Hint: hint}
}

// Sys builds a system-call instruction.
func Sys(fn uint32) Inst { return Inst{Op: OpPal, Format: FormatPal, Func: fn} }

// Nop returns the canonical no-op encoding (bis r31, r31, r31).
func Nop() Inst { return OpR(OpIntL, RegZero, RegZero, FnBIS, RegZero) }

// IsNop reports whether the instruction has no architectural effect.
func IsNop(in Inst) bool {
	switch in.Format {
	case FormatOpReg, FormatOpLit:
		return in.RC == RegZero
	case FormatMem:
		return in.Op != OpSTW && in.Op != OpSTB && in.RA == RegZero
	case FormatBranch:
		// A conditional branch on the zero register with zero displacement
		// falls through unconditionally and has no effect.
		return IsCondBranchOp(in.Op) && in.Disp == 0
	}
	return false
}
