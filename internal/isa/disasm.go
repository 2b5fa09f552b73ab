package isa

import "fmt"

var memMnemonics = map[uint32]string{
	OpLDA:  "lda",
	OpLDAH: "ldah",
	OpLDB:  "ldb",
	OpSTB:  "stb",
	OpLDW:  "ldw",
	OpSTW:  "stw",
}

var branchMnemonics = map[uint32]string{
	OpBR:   "br",
	OpBSR:  "bsr",
	OpBSRX: "bsrx", // virtual: only inside compressed streams
	OpBEQ:  "beq",
	OpBNE:  "bne",
	OpBLT:  "blt",
	OpBLE:  "ble",
	OpBGT:  "bgt",
	OpBGE:  "bge",
}

var operateMnemonics = map[[2]uint32]string{
	{OpIntA, FnADD}:    "add",
	{OpIntA, FnSUB}:    "sub",
	{OpIntA, FnCMPULT}: "cmpult",
	{OpIntA, FnCMPEQ}:  "cmpeq",
	{OpIntA, FnCMPULE}: "cmpule",
	{OpIntA, FnCMPLT}:  "cmplt",
	{OpIntA, FnCMPLE}:  "cmple",
	{OpIntL, FnAND}:    "and",
	{OpIntL, FnBIC}:    "bic",
	{OpIntL, FnBIS}:    "bis",
	{OpIntL, FnORNOT}:  "ornot",
	{OpIntL, FnXOR}:    "xor",
	{OpIntL, FnEQV}:    "eqv",
	{OpIntS, FnSRL}:    "srl",
	{OpIntS, FnSLL}:    "sll",
	{OpIntS, FnSRA}:    "sra",
	{OpIntM, FnMUL}:    "mul",
	{OpIntM, FnDIV}:    "div",
	{OpIntM, FnMOD}:    "mod",
	{OpIntM, FnMULH}:   "mulh",
}

var jumpMnemonics = [4]string{"jmp", "jsr", "ret", "jsr_co"}

var sysMnemonics = map[uint32]string{
	SysHALT:   "sys halt",
	SysGETC:   "sys getc",
	SysPUTC:   "sys putc",
	SysSETJMP: "sys setjmp",
	SysLNGJMP: "sys longjmp",
	SysIMB:    "sys imb",
}

// String renders the instruction in the assembler's input syntax. Branch
// displacements are shown as relative word counts (".+n"/".-n") since the
// instruction does not know its own address; see Disasm for absolute form.
func (in Inst) String() string { return in.render(^uint32(0)) }

// Disasm renders the instruction as it would appear at byte address pc,
// resolving branch displacements to absolute target addresses.
func Disasm(in Inst, pc uint32) string { return in.render(pc) }

func (in Inst) render(pc uint32) string {
	switch in.Format {
	case FormatPal:
		if s, ok := sysMnemonics[in.Func]; ok {
			return s
		}
		return fmt.Sprintf("sys %d", in.Func)
	case FormatMem:
		return fmt.Sprintf("%s r%d, %d(r%d)", memMnemonics[in.Op], in.RA, in.Disp, in.RB)
	case FormatBranch:
		if pc != ^uint32(0) {
			target := pc + WordSize + uint32(in.Disp)*WordSize
			return fmt.Sprintf("%s r%d, %#x", branchMnemonics[in.Op], in.RA, target)
		}
		return fmt.Sprintf("%s r%d, .%+d", branchMnemonics[in.Op], in.RA, in.Disp)
	case FormatOpReg:
		name := operateMnemonics[[2]uint32{in.Op, in.Func}]
		if name == "" {
			name = fmt.Sprintf("op%#x.%#x", in.Op, in.Func)
		}
		if IsNop(in) && in.Op == OpIntL && in.Func == FnBIS && in.RA == RegZero && in.RB == RegZero {
			return "nop"
		}
		return fmt.Sprintf("%s r%d, r%d, r%d", name, in.RA, in.RB, in.RC)
	case FormatOpLit:
		name := operateMnemonics[[2]uint32{in.Op, in.Func}]
		if name == "" {
			name = fmt.Sprintf("op%#x.%#x", in.Op, in.Func)
		}
		return fmt.Sprintf("%s r%d, %d, r%d", name, in.RA, in.Lit, in.RC)
	case FormatJump:
		name := jumpMnemonics[in.JFunc]
		if in.Op == OpJSRX {
			name = "jsrx" // virtual: only inside compressed streams
		}
		return fmt.Sprintf("%s r%d, (r%d)", name, in.RA, in.RB)
	default:
		return fmt.Sprintf(".word %#x", Encode(in))
	}
}
