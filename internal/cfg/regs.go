package cfg

import "repro/internal/isa"

// WritesReg reports whether the instruction writes the given register.
func WritesReg(in Inst, reg uint32) bool {
	if in.Raw() || reg == isa.RegZero {
		return false
	}
	switch in.Format() {
	case isa.FormatMem:
		return (in.Op() == isa.OpLDA || in.Op() == isa.OpLDAH || in.Op() == isa.OpLDW || in.Op() == isa.OpLDB) && in.RA() == reg
	case isa.FormatBranch:
		return (in.Op() == isa.OpBR || in.Op() == isa.OpBSR) && in.RA() == reg
	case isa.FormatOpReg, isa.FormatOpLit:
		return in.RC() == reg
	case isa.FormatJump:
		return in.RA() == reg
	case isa.FormatPal:
		switch in.Func() {
		case isa.SysGETC, isa.SysSETJMP:
			return reg == isa.RegV0
		case isa.SysLNGJMP:
			return true // restores the whole register file
		}
	}
	return false
}

// ReadsReg reports whether the instruction reads the given register.
func ReadsReg(in Inst, reg uint32) bool {
	if in.Raw() || reg == isa.RegZero {
		return false
	}
	switch in.Format() {
	case isa.FormatMem:
		if in.RB() == reg {
			return true
		}
		// Stores read the register being stored.
		return (in.Op() == isa.OpSTW || in.Op() == isa.OpSTB) && in.RA() == reg
	case isa.FormatBranch:
		// Conditional branches test RA; br/bsr write it instead.
		return isa.IsCondBranchOp(in.Op()) && in.RA() == reg
	case isa.FormatOpReg:
		return in.RA() == reg || in.RB() == reg
	case isa.FormatOpLit:
		return in.RA() == reg
	case isa.FormatJump:
		return in.RB() == reg
	case isa.FormatPal:
		switch in.Func() {
		case isa.SysHALT, isa.SysPUTC:
			return reg == isa.RegA0
		case isa.SysGETC, isa.SysIMB:
			return false
		default:
			// setjmp/longjmp capture or restore the whole register file.
			return true
		}
	}
	return false
}

// TouchesReg reports whether the instruction reads or writes the register.
// Outside the Pal format an instruction can touch only a register one of
// its fields names, so a word that names reg nowhere is answered without
// the format switches of ReadsReg and WritesReg; scans over every
// instruction of a program meet almost only such words.
func TouchesReg(in Inst, reg uint32) bool {
	w := in.Word
	if w>>21&31 != reg && w>>16&31 != reg && w&31 != reg && in.Format() != isa.FormatPal {
		return false
	}
	return ReadsReg(in, reg) || WritesReg(in, reg)
}
