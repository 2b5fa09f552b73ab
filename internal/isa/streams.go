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
// belongs to, how wide it is, and where it sits in the word. Every stream
// value is one contiguous bit field, w>>Shift & (1<<Bits - 1): the operate
// formats' op.func value is bits 12:5, the literal flag followed by func.
type FieldRef struct {
	Kind  StreamKind
	Bits  uint8
	Shift uint8
}

// fieldsByFormat lists, per format, the operand streams that follow the
// opcode, in decode order. The opcode itself always comes from StreamOpcode.
var fieldsByFormat = [...][]FieldRef{
	FormatPal: {{StreamPalFunc, 26, 0}},
	FormatMem: {{StreamMemRA, 5, 21}, {StreamMemRB, 5, 16}, {StreamMemDisp, 16, 0}},
	FormatBranch: {
		{StreamBrRA, 5, 21}, {StreamBrDisp, 21, 0},
	},
	// op.func precedes op.rb/op.lit: its high bit is the literal flag, which
	// a sequential decoder needs before it can pick the next stream.
	FormatOpReg: {
		{StreamOpRA, 5, 21}, {StreamOpFunc, 8, 5}, {StreamOpRB, 5, 16}, {StreamOpRC, 5, 0},
	},
	FormatOpLit: {
		{StreamOpRA, 5, 21}, {StreamOpFunc, 8, 5}, {StreamOpLit, 8, 13}, {StreamOpRC, 5, 0},
	},
	FormatJump: {
		{StreamJmpRA, 5, 21}, {StreamJmpRB, 5, 16}, {StreamJmpHint, 16, 0},
	},
	FormatIllegal: nil,
}

// WordLayout is one format's split of an instruction word into stream
// values: the operand fields in decode order (the opcode, bits 31:26,
// always comes first), and Cover, the bits the opcode and those fields
// carry. A word w of the format is canonical — its fields carry all of it,
// so joining them gives w back — exactly when w&^Cover == 0. The one
// non-canonical legal-format word shape is an OpReg word with sbz[15:13]
// set; the illegal format's layout covers nothing, so no illegal-format
// word passes the check.
type WordLayout struct {
	Format Format
	Fields []FieldRef
	Cover  uint32
}

// layouts holds each format's WordLayout, built from fieldsByFormat.
var layouts = func() (l [FormatIllegal + 1]WordLayout) {
	for f := FormatPal; f < FormatIllegal; f++ {
		cover := uint32(0x3F) << 26
		for _, r := range fieldsByFormat[f] {
			cover |= (1<<r.Bits - 1) << r.Shift
		}
		l[f] = WordLayout{Format: f, Fields: fieldsByFormat[f], Cover: cover}
	}
	l[FormatIllegal].Format = FormatIllegal
	return l
}()

// wordLayouts maps a word's opcode and literal flag, w>>26<<1 | w>>12&1,
// to its format's layout: Decode's format choice as one table load.
var wordLayouts = func() (t [128]*WordLayout) {
	for i := range t {
		f := FormatOf(uint32(i) >> 1)
		if f == FormatOpReg && i&1 == 1 {
			f = FormatOpLit
		}
		t[i] = &layouts[f]
	}
	return t
}()

// LayoutOf returns the layout of w's format, which w's opcode and, for the
// operate group, its literal flag select. A decoder that knows only the
// opcode op gets the format's layout from LayoutOf(op<<26) — the lookup
// the paper's decompressor performs after each opcode: "the decoded opcode
// ... specif[ies] the appropriate Huffman codes to use for the remaining
// fields" (§3). For the operate group that is OpReg's layout, whose first
// two fields (op.ra, op.func) OpLit shares; op.func's high bit then picks
// OpLit's.
func LayoutOf(w uint32) *WordLayout {
	return wordLayouts[w>>25&^1|w>>12&1]
}

// FormatOfWord reports the format Decode gives w.
func FormatOfWord(w uint32) Format { return LayoutOf(w).Format }

// Canonical reports whether w is the encoding of its own decoding,
// Encode(Decode(w)) == w: a legal-format word its fields cover, or the
// sentinel.
func Canonical(w uint32) bool {
	return w&^LayoutOf(w).Cover == 0 || w == Sentinel
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
