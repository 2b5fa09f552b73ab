// Package asm implements an assembler for the EM32 instruction set. The
// syntax is modelled on Alpha assembly:
//
//	        .text
//	        .func main           ; begin function symbol "main"
//	loop:                        ; labels end with ':'
//	        lda  sp, -32(sp)
//	        stw  ra, 0(sp)
//	        li   a0, 1234        ; pseudo: load 32-bit immediate
//	        la   a1, table       ; pseudo: load symbol address (ldah+lda)
//	        add  a0, a1, v0
//	        sub  v0, 8, v0       ; literal operand form
//	        beq  v0, loop
//	        call helper          ; pseudo: bsr ra, helper
//	        jsr  ra, (pv)
//	        ret
//	        sys  halt
//	        .data
//	table:  .word loop, 42       ; label words get word32 relocations
//	msg:    .ascii "hi\n"
//	        .byte 1, 2, 3
//	        .space 16
//
// Comments run from ';' or '#' to end of line. Registers may be written
// r0..r31 or by their conventional names (v0, t0..t11, s0..s5, a0..a5, fp,
// ra, pv, at, gp, sp, zero).
//
// The assembler resolves nothing itself: every symbolic reference becomes a
// relocation in the produced object, and the linker resolves them. This
// keeps complete relocation information available to the rewriting tools,
// which the paper's infrastructure requires.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/objfile"
)

// regNames maps register aliases to numbers.
var regNames = map[string]uint32{
	"v0": 0,
	"t0": 1, "t1": 2, "t2": 3, "t3": 4, "t4": 5, "t5": 6, "t6": 7, "t7": 8,
	"s0": 9, "s1": 10, "s2": 11, "s3": 12, "s4": 13, "s5": 14,
	"fp": 15,
	"a0": 16, "a1": 17, "a2": 18, "a3": 19, "a4": 20, "a5": 21,
	"t8": 22, "t9": 23, "t10": 24, "t11": 25,
	"ra": 26, "pv": 27, "at": 28, "gp": 29, "sp": 30, "zero": 31,
}

var sysNames = map[string]uint32{
	"halt":    isa.SysHALT,
	"getc":    isa.SysGETC,
	"putc":    isa.SysPUTC,
	"setjmp":  isa.SysSETJMP,
	"longjmp": isa.SysLNGJMP,
	"imb":     isa.SysIMB,
}

// operate maps operate-group mnemonics to (opcode, func).
var operate = map[string][2]uint32{
	"add":    {isa.OpIntA, isa.FnADD},
	"sub":    {isa.OpIntA, isa.FnSUB},
	"cmpult": {isa.OpIntA, isa.FnCMPULT},
	"cmpeq":  {isa.OpIntA, isa.FnCMPEQ},
	"cmpule": {isa.OpIntA, isa.FnCMPULE},
	"cmplt":  {isa.OpIntA, isa.FnCMPLT},
	"cmple":  {isa.OpIntA, isa.FnCMPLE},
	"and":    {isa.OpIntL, isa.FnAND},
	"bic":    {isa.OpIntL, isa.FnBIC},
	"bis":    {isa.OpIntL, isa.FnBIS},
	"or":     {isa.OpIntL, isa.FnBIS},
	"ornot":  {isa.OpIntL, isa.FnORNOT},
	"xor":    {isa.OpIntL, isa.FnXOR},
	"eqv":    {isa.OpIntL, isa.FnEQV},
	"srl":    {isa.OpIntS, isa.FnSRL},
	"sll":    {isa.OpIntS, isa.FnSLL},
	"sra":    {isa.OpIntS, isa.FnSRA},
	"mul":    {isa.OpIntM, isa.FnMUL},
	"div":    {isa.OpIntM, isa.FnDIV},
	"mod":    {isa.OpIntM, isa.FnMOD},
	"mulh":   {isa.OpIntM, isa.FnMULH},
}

var memOps = map[string]uint32{
	"lda":  isa.OpLDA,
	"ldah": isa.OpLDAH,
	"ldb":  isa.OpLDB,
	"stb":  isa.OpSTB,
	"ldw":  isa.OpLDW,
	"stw":  isa.OpSTW,
}

var branchOps = map[string]uint32{
	"br":  isa.OpBR,
	"bsr": isa.OpBSR,
	"beq": isa.OpBEQ,
	"bne": isa.OpBNE,
	"blt": isa.OpBLT,
	"ble": isa.OpBLE,
	"bgt": isa.OpBGT,
	"bge": isa.OpBGE,
}

var jumpOps = map[string]uint32{
	"jmp":    isa.JmpJMP,
	"jsr":    isa.JmpJSR,
	"retreg": isa.JmpRET, // explicit-register form: retreg r31, (r26)
}

// assembler holds the state of one Assemble run.
type assembler struct {
	obj     *objfile.Object
	section objfile.Section
	line    int
	errs    []error
	// defined holds the line that defined each symbol.
	defined map[string]int
}

func (a *assembler) errorf(format string, args ...any) {
	a.errs = append(a.errs, fmt.Errorf("line %d: %s", a.line, fmt.Sprintf(format, args...)))
}

// Assemble translates EM32 assembly source into a relocatable object.
func Assemble(src string) (*objfile.Object, error) {
	a := &assembler{obj: &objfile.Object{}, section: objfile.SecText, defined: map[string]int{}}
	for i, raw := range strings.Split(src, "\n") {
		a.line = i + 1
		a.doLine(raw)
		if len(a.errs) > 20 {
			break
		}
	}
	if len(a.errs) > 0 {
		msgs := make([]string, len(a.errs))
		for i, e := range a.errs {
			msgs[i] = e.Error()
		}
		return nil, fmt.Errorf("asm: %s", strings.Join(msgs, "\n"))
	}
	return a.obj, nil
}

func (a *assembler) here() uint32 {
	if a.section == objfile.SecText {
		return uint32(len(a.obj.Text) * isa.WordSize)
	}
	return uint32(len(a.obj.Data))
}

func (a *assembler) defineSymbol(name string, kind objfile.SymKind) {
	if line, ok := a.defined[name]; ok {
		a.errorf("symbol %s already defined on line %d", name, line)
		return
	}
	a.defined[name] = a.line
	a.obj.Symbols = append(a.obj.Symbols, objfile.Symbol{
		Name: name, Section: a.section, Offset: a.here(), Kind: kind,
	})
}

func (a *assembler) emit(in isa.Inst) {
	if a.section != objfile.SecText {
		a.errorf("instruction outside .text")
		return
	}
	a.obj.Text = append(a.obj.Text, isa.Encode(in))
}

// emitReloc emits an instruction whose displacement field is patched later.
func (a *assembler) emitReloc(in isa.Inst, kind objfile.RelocKind, sym string, addend int32) {
	a.obj.Relocs = append(a.obj.Relocs, objfile.Reloc{
		Section: objfile.SecText, Offset: a.here(), Kind: kind, Sym: sym, Addend: addend,
	})
	a.emit(in)
}

func (a *assembler) doLine(raw string) {
	// Strip comments; respect no string-literal escapes of ; in .ascii by
	// scanning for quotes.
	line := raw
	inStr := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c == '"' && (i == 0 || line[i-1] != '\\') {
			inStr = !inStr
		}
		if (c == ';' || c == '#') && !inStr {
			line = line[:i]
			break
		}
	}
	line = strings.TrimSpace(line)
	if line == "" {
		return
	}

	// Labels: one or more "name:" prefixes.
	for {
		idx := strings.Index(line, ":")
		if idx < 0 {
			break
		}
		head := strings.TrimSpace(line[:idx])
		if !isIdent(head) {
			break
		}
		kind := objfile.SymKind(objfile.SymLabel)
		if a.section == objfile.SecData {
			kind = objfile.SymObject
		}
		a.defineSymbol(head, kind)
		line = strings.TrimSpace(line[idx+1:])
		if line == "" {
			return
		}
	}

	fields := splitOperands(line)
	mnem := strings.ToLower(fields[0])
	ops := fields[1:]

	if strings.HasPrefix(mnem, ".") {
		a.directive(mnem, ops, line)
		return
	}
	a.instruction(mnem, ops)
}

// splitOperands splits "mnemonic op1, op2, op3" into fields, keeping
// parenthesized operands like "8(sp)" intact and string literals whole.
func splitOperands(line string) []string {
	var out []string
	i := 0
	for i < len(line) && !isSpace(line[i]) {
		i++
	}
	out = append(out, line[:i])
	rest := strings.TrimSpace(line[i:])
	if rest == "" {
		return out
	}
	if strings.HasPrefix(rest, "\"") {
		out = append(out, rest)
		return out
	}
	for _, part := range strings.Split(rest, ",") {
		out = append(out, strings.TrimSpace(part))
	}
	return out
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' }

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.', c == '$':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (a *assembler) directive(mnem string, ops []string, line string) {
	switch mnem {
	case ".text":
		a.section = objfile.SecText
	case ".data":
		a.section = objfile.SecData
	case ".func":
		if len(ops) != 1 || !isIdent(ops[0]) {
			a.errorf(".func requires one symbol name")
			return
		}
		if a.section != objfile.SecText {
			a.errorf(".func outside .text")
			return
		}
		a.defineSymbol(ops[0], objfile.SymFunc)
	case ".endfunc":
		// Structural no-op; function extent runs to the next .func.
	case ".globl", ".global":
		// All symbols are global; accepted for familiarity.
	case ".word":
		for _, op := range ops {
			a.dataWord(op)
		}
	case ".byte":
		if a.section != objfile.SecData {
			a.errorf(".byte outside .data")
			return
		}
		for _, op := range ops {
			v, err := parseInt(op)
			if err != nil {
				a.errorf("bad byte value %q", op)
				return
			}
			a.obj.Data = append(a.obj.Data, byte(v))
		}
	case ".ascii":
		if a.section != objfile.SecData {
			a.errorf(".ascii outside .data")
			return
		}
		start := strings.Index(line, "\"")
		end := strings.LastIndex(line, "\"")
		if start < 0 || end <= start {
			a.errorf(".ascii requires a quoted string")
			return
		}
		s, err := strconv.Unquote(line[start : end+1])
		if err != nil {
			a.errorf("bad string literal: %v", err)
			return
		}
		a.obj.Data = append(a.obj.Data, s...)
	case ".space":
		if len(ops) != 1 {
			a.errorf(".space requires a size")
			return
		}
		n, err := parseInt(ops[0])
		if err != nil || n < 0 {
			a.errorf("bad .space size %q", ops[0])
			return
		}
		if a.section == objfile.SecData {
			a.obj.Data = append(a.obj.Data, make([]byte, n)...)
		} else {
			if n%isa.WordSize != 0 {
				a.errorf(".space in .text must be word-aligned")
				return
			}
			for i := int64(0); i < n; i += isa.WordSize {
				a.emit(isa.Nop())
			}
		}
	case ".align":
		if len(ops) != 1 {
			a.errorf(".align requires an alignment")
			return
		}
		n, err := parseInt(ops[0])
		if err != nil || n <= 0 {
			a.errorf("bad alignment %q", ops[0])
			return
		}
		if a.section == objfile.SecData {
			for int64(len(a.obj.Data))%n != 0 {
				a.obj.Data = append(a.obj.Data, 0)
			}
		}
	default:
		a.errorf("unknown directive %s", mnem)
	}
}

// dataWord emits one .word operand: either a literal or a symbol reference
// (with optional +offset), which becomes a word32 relocation.
func (a *assembler) dataWord(op string) {
	emitWord := func(v uint32) {
		if a.section == objfile.SecData {
			a.obj.Data = append(a.obj.Data, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		} else {
			a.obj.Text = append(a.obj.Text, v)
		}
	}
	if v, err := parseInt(op); err == nil {
		emitWord(uint32(v))
		return
	}
	sym, add, ok := symPlusOffset(op)
	if !ok {
		a.errorf("bad .word operand %q", op)
		return
	}
	a.obj.Relocs = append(a.obj.Relocs, objfile.Reloc{
		Section: a.section, Offset: a.here(), Kind: objfile.RelWord32, Sym: sym, Addend: add,
	})
	emitWord(0)
}

func parseInt(s string) (int64, error) {
	return strconv.ParseInt(s, 0, 64)
}

// symPlusOffset parses "sym", "sym+4" or "sym-4".
func symPlusOffset(s string) (string, int32, bool) {
	for i := 1; i < len(s); i++ {
		if s[i] == '+' || s[i] == '-' {
			off, err := parseInt(s[i:])
			if err != nil {
				return "", 0, false
			}
			if !isIdent(s[:i]) {
				return "", 0, false
			}
			return s[:i], int32(off), true
		}
	}
	if !isIdent(s) {
		return "", 0, false
	}
	return s, 0, true
}

func (a *assembler) reg(s string) (uint32, bool) {
	s = strings.ToLower(s)
	if n, ok := regNames[s]; ok {
		return n, true
	}
	if strings.HasPrefix(s, "r") {
		if v, err := strconv.Atoi(s[1:]); err == nil && v >= 0 && v < isa.NumRegs {
			return uint32(v), true
		}
	}
	return 0, false
}

// memOperand parses "disp(reg)" or "(reg)" or "disp".
func (a *assembler) memOperand(s string) (disp int32, reg uint32, ok bool) {
	open := strings.Index(s, "(")
	if open < 0 {
		v, err := parseInt(s)
		if err != nil {
			return 0, 0, false
		}
		return int32(v), isa.RegZero, true
	}
	if !strings.HasSuffix(s, ")") {
		return 0, 0, false
	}
	r, ok2 := a.reg(s[open+1 : len(s)-1])
	if !ok2 {
		return 0, 0, false
	}
	dispStr := strings.TrimSpace(s[:open])
	if dispStr == "" {
		return 0, r, true
	}
	v, err := parseInt(dispStr)
	if err != nil {
		return 0, 0, false
	}
	return int32(v), r, true
}

func (a *assembler) instruction(mnem string, ops []string) {
	switch {
	case mnem == "nop":
		a.emit(isa.Nop())
	case mnem == "ret":
		a.emit(isa.Jump(isa.JmpRET, isa.RegZero, isa.RegRA, 0))
	case mnem == "call":
		if len(ops) != 1 {
			a.errorf("call requires a target symbol")
			return
		}
		a.branchInst(isa.OpBSR, isa.RegRA, ops[0])
	case mnem == "mov":
		if len(ops) != 2 {
			a.errorf("mov requires two registers")
			return
		}
		ra, ok1 := a.reg(ops[0])
		rc, ok2 := a.reg(ops[1])
		if !ok1 || !ok2 {
			a.errorf("bad mov operands")
			return
		}
		a.emit(isa.OpR(isa.OpIntL, ra, ra, isa.FnBIS, rc))
	case mnem == "clr":
		if len(ops) != 1 {
			a.errorf("clr requires one register")
			return
		}
		rc, ok := a.reg(ops[0])
		if !ok {
			a.errorf("bad clr operand")
			return
		}
		a.emit(isa.OpR(isa.OpIntL, isa.RegZero, isa.RegZero, isa.FnBIS, rc))
	case mnem == "li":
		if len(ops) != 2 {
			a.errorf("li requires register, immediate")
			return
		}
		rc, ok := a.reg(ops[0])
		v, err := parseInt(ops[1])
		if !ok || err != nil || v < -(1<<31) || v > 1<<32-1 {
			a.errorf("bad li operands %v", ops)
			return
		}
		a.loadImmediate(rc, int32(uint32(v&0xFFFFFFFF)))
	case mnem == "la":
		if len(ops) != 2 {
			a.errorf("la requires register, symbol")
			return
		}
		rc, ok := a.reg(ops[0])
		sym, add, ok2 := symPlusOffset(ops[1])
		if !ok || !ok2 {
			a.errorf("bad la operands %v", ops)
			return
		}
		a.emitReloc(isa.Mem(isa.OpLDAH, rc, isa.RegZero, 0), objfile.RelHi16, sym, add)
		a.emitReloc(isa.Mem(isa.OpLDA, rc, rc, 0), objfile.RelLo16, sym, add)
	case mnem == "sys":
		if len(ops) != 1 {
			a.errorf("sys requires a function")
			return
		}
		fn, ok := sysNames[strings.ToLower(ops[0])]
		if !ok {
			v, err := parseInt(ops[0])
			if err != nil {
				a.errorf("unknown syscall %q", ops[0])
				return
			}
			fn = uint32(v)
		}
		a.emit(isa.Sys(fn))
	case hasKey(memOps, mnem):
		a.memInst(memOps[mnem], ops)
	case hasKey(branchOps, mnem):
		if len(ops) == 1 {
			// "br target" shorthand uses the zero register.
			a.branchInst(branchOps[mnem], isa.RegZero, ops[0])
			return
		}
		if len(ops) != 2 {
			a.errorf("%s requires register, target", mnem)
			return
		}
		ra, ok := a.reg(ops[0])
		if !ok {
			a.errorf("bad register %q", ops[0])
			return
		}
		a.branchInst(branchOps[mnem], ra, ops[1])
	case mnem == "jmp" || mnem == "jsr" || mnem == "retreg":
		a.jumpInst(mnem, ops)
	default:
		if spec, ok := operate[mnem]; ok {
			a.operateInst(spec[0], spec[1], ops)
			return
		}
		a.errorf("unknown mnemonic %q", mnem)
	}
}

func hasKey(m map[string]uint32, k string) bool { _, ok := m[k]; return ok }

// loadImmediate materializes a 32-bit constant with ldah+lda (or a single
// lda when the value fits in a signed 16-bit displacement). LDAH shifts its
// displacement left 16, and the LDA low half is sign-extended, so the high
// half must be corrected when the low half is negative; 32-bit wraparound in
// the VM makes the pair exact for every value.
func (a *assembler) loadImmediate(rc uint32, v int32) {
	if v >= -(1<<15) && v < 1<<15 {
		a.emit(isa.Mem(isa.OpLDA, rc, isa.RegZero, v))
		return
	}
	lo := int32(int16(v & 0xFFFF))
	hi := int32(int16((int64(v) - int64(lo)) >> 16))
	a.emit(isa.Mem(isa.OpLDAH, rc, isa.RegZero, hi))
	if lo != 0 {
		a.emit(isa.Mem(isa.OpLDA, rc, rc, lo))
	}
}

func (a *assembler) memInst(op uint32, ops []string) {
	if len(ops) != 2 {
		a.errorf("memory instruction requires register, address")
		return
	}
	ra, ok := a.reg(ops[0])
	if !ok {
		a.errorf("bad register %q", ops[0])
		return
	}
	disp, rb, ok := a.memOperand(ops[1])
	if !ok {
		a.errorf("bad memory operand %q", ops[1])
		return
	}
	if disp < -(1<<15) || disp >= 1<<15 {
		a.errorf("memory displacement %d out of range", disp)
		return
	}
	a.emit(isa.Mem(op, ra, rb, disp))
}

func (a *assembler) branchInst(op, ra uint32, target string) {
	sym, add, ok := symPlusOffset(target)
	if !ok {
		a.errorf("bad branch target %q", target)
		return
	}
	a.emitReloc(isa.Br(op, ra, 0), objfile.RelBrDisp21, sym, add)
}

func (a *assembler) jumpInst(mnem string, ops []string) {
	jf := jumpOps[mnem]
	var ra, rb uint32
	var ok bool
	switch len(ops) {
	case 1: // "jmp (r5)"
		ra = isa.RegZero
		if mnem == "jsr" {
			ra = isa.RegRA
		}
		_, rb, ok = a.memOperand(ops[0])
	case 2: // "jsr ra, (pv)"
		ra, ok = a.reg(ops[0])
		if ok {
			_, rb, ok = a.memOperand(ops[1])
		}
	default:
		a.errorf("%s requires one or two operands", mnem)
		return
	}
	if !ok {
		a.errorf("bad %s operands %v", mnem, ops)
		return
	}
	a.emit(isa.Jump(jf, ra, rb, 0))
}

func (a *assembler) operateInst(op, fn uint32, ops []string) {
	if len(ops) != 3 {
		a.errorf("operate instruction requires three operands")
		return
	}
	ra, ok := a.reg(ops[0])
	rc, ok2 := a.reg(ops[2])
	if !ok || !ok2 {
		a.errorf("bad operate registers %v", ops)
		return
	}
	if rb, isReg := a.reg(ops[1]); isReg {
		a.emit(isa.OpR(op, ra, rb, fn, rc))
		return
	}
	v, err := parseInt(ops[1])
	if err != nil || v < 0 || v > 255 {
		a.errorf("operate literal %q out of range 0..255", ops[1])
		return
	}
	a.emit(isa.OpL(op, ra, uint32(v), fn, rc))
}
