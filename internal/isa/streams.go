package isa

import "fmt"

// StreamKind identifies one of the fifteen operand-field streams that the
// split-stream compressor separates instructions into (paper, §3: "For our
// test platform, we split the instructions into 15 streams"). The opcode
// stream fully determines which of the remaining streams supply the fields
// of each instruction, which is what lets the compressor merge all codeword
// sequences into a single bit sequence.
type StreamKind uint8

// The fifteen streams. Register fields are split by format role rather than
// pooled, because the value distributions differ sharply between roles
// (e.g. the branch RA field is dominated by the return-address register
// while memory RB is dominated by the stack pointer); per-role streams give
// each Huffman code a tighter distribution.
const (
	StreamOpcode  StreamKind = iota // 6-bit primary opcode (every instruction)
	StreamMemRA                     // Mem format: register a
	StreamMemRB                     // Mem format: base register
	StreamMemDisp                   // Mem format: 16-bit displacement
	StreamBrRA                      // Branch format: register a
	StreamBrDisp                    // Branch format: 21-bit displacement
	StreamOpRA                      // Operate formats: register a
	StreamOpRB                      // OpReg format: register b
	StreamOpLit                     // OpLit format: 8-bit literal
	StreamOpFunc                    // Operate formats: literal flag ++ 7-bit func
	StreamOpRC                      // Operate formats: destination register
	StreamJmpRA                     // Jump format: link register
	StreamJmpRB                     // Jump format: target register
	StreamJmpHint                   // Jump format: jfunc ++ 14-bit hint
	StreamPalFunc                   // Pal format: 26-bit function code
	NumStreams
)

var streamNames = [...]string{
	StreamOpcode:  "opcode",
	StreamMemRA:   "mem.ra",
	StreamMemRB:   "mem.rb",
	StreamMemDisp: "mem.disp",
	StreamBrRA:    "br.ra",
	StreamBrDisp:  "br.disp",
	StreamOpRA:    "op.ra",
	StreamOpRB:    "op.rb",
	StreamOpLit:   "op.lit",
	StreamOpFunc:  "op.func",
	StreamOpRC:    "op.rc",
	StreamJmpRA:   "jmp.ra",
	StreamJmpRB:   "jmp.rb",
	StreamJmpHint: "jmp.hint",
	StreamPalFunc: "pal.func",
}

// Bits reports the width of the stream's values: every value Fields
// produces for it is below 1<<Bits.
func (k StreamKind) Bits() uint { return uint(streamBits[k]) }

func (k StreamKind) String() string {
	if int(k) < len(streamNames) {
		return streamNames[k]
	}
	return fmt.Sprintf("stream(%d)", uint8(k))
}

// FieldRef names one operand field of an instruction: which stream it
// belongs to and how wide it is in the raw encoding.
type FieldRef struct {
	Kind StreamKind
	Bits uint8
}

// fieldsByFormat lists, per format, the operand streams that follow the
// opcode, in decode order. The opcode itself always comes from StreamOpcode.
var fieldsByFormat = map[Format][]FieldRef{
	FormatPal: {{StreamPalFunc, 26}},
	FormatMem: {{StreamMemRA, 5}, {StreamMemRB, 5}, {StreamMemDisp, 16}},
	FormatBranch: {
		{StreamBrRA, 5}, {StreamBrDisp, 21},
	},
	// op.func precedes op.rb/op.lit: its high bit is the literal flag, which
	// a sequential decoder needs before it can pick the next stream.
	FormatOpReg: {
		{StreamOpRA, 5}, {StreamOpFunc, 8}, {StreamOpRB, 5}, {StreamOpRC, 5},
	},
	FormatOpLit: {
		{StreamOpRA, 5}, {StreamOpFunc, 8}, {StreamOpLit, 8}, {StreamOpRC, 5},
	},
	FormatJump: {
		{StreamJmpRA, 5}, {StreamJmpRB, 5}, {StreamJmpHint, 16},
	},
	FormatIllegal: nil,
}

// streamBits is each stream's value width: the opcode's 6 bits, and each
// operand stream's width from fieldsByFormat.
var streamBits = func() (bits [NumStreams]uint8) {
	bits[StreamOpcode] = 6
	for _, refs := range fieldsByFormat {
		for _, r := range refs {
			bits[r.Kind] = r.Bits
		}
	}
	return bits
}()

// OperandFields reports the operand streams, in decode order, for an
// instruction with the given primary opcode and (for the operate group)
// literal flag. This is the lookup the decompressor performs after decoding
// each opcode: "the decoded opcode ... specif[ies] the appropriate Huffman
// codes to use for the remaining fields" (paper, §3).
func OperandFields(op uint32, litFlag bool) []FieldRef {
	f := FormatOf(op)
	if f == FormatOpReg && litFlag {
		f = FormatOpLit
	}
	return fieldsByFormat[f]
}

// Fields decomposes a decoded instruction into (stream, value) pairs, with
// the opcode first. The values round-trip: FromFields(Fields(in)) == in.
//
// Displacements are stored as their raw (unsigned, truncated) field values,
// and the operate literal flag is folded into the op.func stream value as
// its high bit, so that the fifteen streams carry the complete encoding.
func Fields(in Inst) []FieldValue {
	return AppendFields(make([]FieldValue, 0, 5), in)
}

// AppendFields is Fields into caller-owned storage: it appends the (stream,
// value) pairs of in to dst and returns the extended slice. Hot encode loops
// pass a reused scratch slice (dst[:0]) so field splitting allocates
// nothing; the pairs produced are identical to Fields'.
func AppendFields(dst []FieldValue, in Inst) []FieldValue {
	out := dst
	op := in.Op
	if in.Format == FormatIllegal {
		op = OpIllegal
	}
	out = append(out, FieldValue{StreamOpcode, op})
	switch in.Format {
	case FormatPal:
		out = append(out, FieldValue{StreamPalFunc, in.Func})
	case FormatMem:
		out = append(out,
			FieldValue{StreamMemRA, in.RA},
			FieldValue{StreamMemRB, in.RB},
			FieldValue{StreamMemDisp, uint32(in.Disp) & 0xFFFF})
	case FormatBranch:
		out = append(out,
			FieldValue{StreamBrRA, in.RA},
			FieldValue{StreamBrDisp, uint32(in.Disp) & 0x1FFFFF})
	case FormatOpReg:
		out = append(out,
			FieldValue{StreamOpRA, in.RA},
			FieldValue{StreamOpFunc, in.Func},
			FieldValue{StreamOpRB, in.RB},
			FieldValue{StreamOpRC, in.RC})
	case FormatOpLit:
		out = append(out,
			FieldValue{StreamOpRA, in.RA},
			FieldValue{StreamOpFunc, 1<<7 | in.Func},
			FieldValue{StreamOpLit, in.Lit},
			FieldValue{StreamOpRC, in.RC})
	case FormatJump:
		out = append(out,
			FieldValue{StreamJmpRA, in.RA},
			FieldValue{StreamJmpRB, in.RB},
			FieldValue{StreamJmpHint, in.JFunc<<14 | in.Hint})
	}
	return out
}

// FieldValue is one (stream, value) pair produced by Fields.
type FieldValue struct {
	Kind  StreamKind
	Value uint32
}

// FromFields reassembles an instruction from the pairs produced by Fields.
// It panics on malformed input, which indicates a corrupted compressed
// stream rather than recoverable user error.
func FromFields(fv []FieldValue) Inst {
	if len(fv) == 0 || fv[0].Kind != StreamOpcode {
		panic("isa.FromFields: missing opcode field")
	}
	op := fv[0].Value
	in := Inst{Op: op, Format: FormatOf(op)}
	get := func(i int, k StreamKind) uint32 {
		if i >= len(fv) || fv[i].Kind != k {
			panic(fmt.Sprintf("isa.FromFields: expected %v at position %d", k, i))
		}
		return fv[i].Value
	}
	switch in.Format {
	case FormatPal:
		in.Func = get(1, StreamPalFunc)
	case FormatMem:
		in.RA = get(1, StreamMemRA)
		in.RB = get(2, StreamMemRB)
		in.Disp = int32(int16(get(3, StreamMemDisp)))
	case FormatBranch:
		in.RA = get(1, StreamBrRA)
		in.Disp = int32(get(2, StreamBrDisp)&0x1FFFFF) << 11 >> 11
	case FormatOpReg:
		in.RA = get(1, StreamOpRA)
		fn := get(2, StreamOpFunc)
		if fn>>7&1 == 1 {
			in.Format = FormatOpLit
			in.Lit = get(3, StreamOpLit)
			in.Func = fn & 0x7F
		} else {
			in.RB = get(3, StreamOpRB)
			in.Func = fn
		}
		in.RC = get(4, StreamOpRC)
	case FormatJump:
		in.RA = get(1, StreamJmpRA)
		in.RB = get(2, StreamJmpRB)
		h := get(3, StreamJmpHint)
		in.JFunc = h >> 14 & 3
		in.Hint = h & 0x3FFF
	case FormatIllegal:
		// Sentinel: opcode only.
	}
	return in
}
