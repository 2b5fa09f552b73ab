package cfg

import "repro/internal/isa"

// WritesReg reports whether the instruction writes the given register.
func WritesReg(in Inst, reg uint32) bool { return writesReg(&in, reg) }

// ReadsReg reports whether the instruction reads the given register.
func ReadsReg(in Inst, reg uint32) bool {
	if in.Raw || reg == isa.RegZero {
		return false
	}
	switch in.Format {
	case isa.FormatMem:
		if in.RB == reg {
			return true
		}
		// Stores read the register being stored.
		return (in.Op == isa.OpSTW || in.Op == isa.OpSTB) && in.RA == reg
	case isa.FormatBranch:
		// Conditional branches test RA; br/bsr write it instead.
		return isa.IsCondBranchOp(in.Op) && in.RA == reg
	case isa.FormatOpReg:
		return in.RA == reg || in.RB == reg
	case isa.FormatOpLit:
		return in.RA == reg
	case isa.FormatJump:
		return in.RB == reg
	case isa.FormatPal:
		switch in.Func {
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
func TouchesReg(in Inst, reg uint32) bool {
	return ReadsReg(in, reg) || WritesReg(in, reg)
}
