// Package streamcomp implements the paper's compression scheme (§3): a
// simplified "splitting streams" coder. Each instruction is decomposed into
// typed operand fields; the values of each field type form a stream; each
// stream gets its own canonical Huffman code; and the codeword sequences of
// all streams are merged into a single bit sequence, because the opcode —
// always decoded first — fully determines which streams supply the
// remaining fields of the instruction.
//
// Every compressed region ends with a sentinel (an illegal instruction)
// that tells the decompressor to stop (§2.1).
//
// An optional move-to-front transform can be applied per stream before
// Huffman coding; the paper notes it buys slightly better compression for
// some streams at the cost of a larger, slower decompressor (§3). It is off
// by default and exercised by the ablation benchmarks.
package streamcomp

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/huffman"
	"repro/internal/isa"
	"repro/internal/parallel"
)

// Options configures the compressor.
type Options struct {
	// MTF applies a move-to-front transform to each stream before coding.
	MTF bool
	// Workers bounds the goroutines Train uses for frequency counting;
	// <= 0 means one per CPU. The trained codes are identical at any
	// worker count: per-chunk counts are summed, and summation is
	// order-independent.
	Workers int
}

// Compressor holds one canonical Huffman code per operand stream, trained
// over all regions of a program. All regions share the codes; the code
// tables are therefore charged once against the compressed program size.
//
// With MTF enabled the compressor additionally stores, per stream, the
// sorted alphabet of raw values: both sides initialize each region's
// move-to-front list from it, so recency indices are decodable. The
// alphabets are extra decompressor data — the size and speed cost the paper
// notes against the MTF variant.
type Compressor struct {
	codes     [isa.NumStreams]*huffman.Code
	alphabets [isa.NumStreams][]uint32
	opts      Options

	// estBitsPerInst is the expected coded size of one instruction, rounded
	// up, computed by Train from the same frequency counts the codes were
	// built from (Σ freq·codelen over all streams ÷ opcode count). It sizes
	// the pooled per-region writers so a region encode completes without
	// intermediate buffer growth; zero (an untrained or deserialized
	// compressor) falls back to a conservative default.
	estBitsPerInst int

	// slowDecode routes every field decode through the reference bit-at-a-
	// time decoder (huffman.Code.DecodeTree) instead of the table-driven
	// one. Both consume identical bits; the switch exists so the runtime's
	// fast-path-disabled mode can demonstrate that end to end.
	slowDecode bool
}

// SetSlowDecode selects the reference Huffman decoder for all subsequent
// Decompress calls (true) or the table-driven one (false, the default).
func (c *Compressor) SetSlowDecode(v bool) { c.slowDecode = v }

// sentinelInst is the region terminator as seen by the field splitter.
var sentinelInst = isa.Inst{Op: isa.OpIllegal, Format: isa.FormatIllegal}

// Train builds the per-stream codes from the field-value frequencies of all
// instruction sequences that will be compressed (the first pass of the
// paper's two-pass process). A sentinel per sequence is included. The
// returned compressor has its codes primed, so concurrent Compress calls
// share it safely.
func Train(seqs [][]isa.Inst, opts Options) *Compressor {
	c := &Compressor{opts: opts}
	if opts.MTF {
		// Alphabet collection fans out too: a stream's alphabet is every
		// value counted at least once, which no merge order changes.
		seen := countChunks(seqs, opts.Workers, func(f *streamCounts, seq []isa.Inst) {
			var fv [8]isa.FieldValue
			for i := 0; i <= len(seq); i++ {
				for _, x := range isa.AppendFields(fv[:0], instOrSentinel(seq, i)) {
					f.add(x.Kind, x.Value)
				}
			}
		})
		for k := range c.alphabets {
			c.alphabets[k], _ = seen.sorted(isa.StreamKind(k))
		}
		putStreamCounts(seen)
	}

	// Frequency counting is per sequence (each sequence restarts its MTF
	// state), so it fans out; the merged counts are sums, identical at any
	// worker count.
	freqs := countChunks(seqs, opts.Workers, func(f *streamCounts, seq []isa.Inst) {
		mtf := c.newMTF()
		var fv [8]isa.FieldValue
		for i := 0; i <= len(seq); i++ {
			for _, x := range isa.AppendFields(fv[:0], instOrSentinel(seq, i)) {
				v := x.Value
				if mtf != nil {
					v = mtf[x.Kind].encode(v)
				}
				f.add(x.Kind, v)
			}
		}
	})
	var totalBits, totalInsts uint64
	for k := range c.codes {
		values, counts := freqs.sorted(isa.StreamKind(k))
		c.codes[k] = huffman.BuildSorted(values, counts)
		c.codes[k].Prime()
		for i, v := range values {
			totalBits += counts[i] * uint64(c.codes[k].CodeLen(v))
		}
		if k == int(isa.StreamOpcode) {
			for _, n := range counts {
				totalInsts += n // every instruction (and sentinel) has an opcode
			}
		}
	}
	putStreamCounts(freqs)
	if totalInsts > 0 {
		c.estBitsPerInst = int((totalBits + totalInsts - 1) / totalInsts)
	}
	return c
}

// denseBits is the widest stream counted in a flat array: the 16-bit
// displacement and hint streams take 64 Ki counters each; only the 21-bit
// branch displacements and 26-bit PAL codes are counted in maps.
const denseBits = 16

// streamCounts holds one value→count table per operand stream: a flat
// array indexed by value for streams of at most denseBits bits, a map for
// the wider ones. A count stays below 2^32 because no image holds that many
// instructions.
type streamCounts struct {
	dense  [isa.NumStreams][]uint32
	sparse [isa.NumStreams]map[uint32]uint64
}

// countsPool recycles streamCounts: the flat arrays come to about half a
// MiB, too much to allocate and zero for every squash.
var countsPool = sync.Pool{New: func() any {
	f := new(streamCounts)
	for k := range f.dense {
		if bits := isa.StreamKind(k).Bits(); bits <= denseBits {
			f.dense[k] = make([]uint32, 1<<bits)
		} else {
			f.sparse[k] = make(map[uint32]uint64)
		}
	}
	return f
}}

func getStreamCounts() *streamCounts { return countsPool.Get().(*streamCounts) }

// putStreamCounts zeroes f and returns it to the pool.
func putStreamCounts(f *streamCounts) {
	for k := range f.dense {
		clear(f.dense[k])
		clear(f.sparse[k])
	}
	countsPool.Put(f)
}

// add counts one occurrence of value v in stream k.
func (f *streamCounts) add(k isa.StreamKind, v uint32) {
	if d := f.dense[k]; d != nil {
		d[v]++
	} else {
		f.sparse[k][v]++
	}
}

// merge adds o's counts into f.
func (f *streamCounts) merge(o *streamCounts) {
	for k := range f.dense {
		for v, n := range o.dense[k] {
			f.dense[k][v] += n
		}
		for v, n := range o.sparse[k] {
			f.sparse[k][v] += n
		}
	}
}

// sorted lists the values of stream k that occurred, ascending, with
// their counts.
func (f *streamCounts) sorted(k isa.StreamKind) ([]uint32, []uint64) {
	if d := f.dense[k]; d != nil {
		n := 0
		for _, c := range d {
			if c > 0 {
				n++
			}
		}
		values, counts := make([]uint32, 0, n), make([]uint64, 0, n)
		for v, c := range d {
			if c > 0 {
				values = append(values, uint32(v))
				counts = append(counts, uint64(c))
			}
		}
		return values, counts
	}
	values := make([]uint32, 0, len(f.sparse[k]))
	for v := range f.sparse[k] {
		values = append(values, v)
	}
	sortU32(values)
	counts := make([]uint64, len(values))
	for i, v := range values {
		counts[i] = f.sparse[k][v]
	}
	return values, counts
}

// instOrSentinel returns seq[i], or the region sentinel at i == len(seq).
func instOrSentinel(seq []isa.Inst, i int) isa.Inst {
	if i == len(seq) {
		return sentinelInst
	}
	return seq[i]
}

// countChunks runs count over every sequence, split into one contiguous
// chunk of sequences per worker. Each chunk counts into its own pooled
// tables and the chunks' tables are then summed, so the result is the same
// at any worker count. The caller returns the result to the pool.
func countChunks(seqs [][]isa.Inst, workers int, count func(f *streamCounts, seq []isa.Inst)) *streamCounts {
	var (
		mu    sync.Mutex
		parts []*streamCounts
	)
	_ = parallel.ForEachChunk(len(seqs), workers, 1, func(lo, hi int) error {
		f := getStreamCounts()
		for _, seq := range seqs[lo:hi] {
			count(f, seq)
		}
		mu.Lock()
		parts = append(parts, f)
		mu.Unlock()
		return nil
	})
	if len(parts) == 0 {
		return getStreamCounts()
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out.merge(p)
		putStreamCounts(p)
	}
	return out
}

// SizeHint estimates the byte capacity a region of nInsts instructions needs,
// from the trained expected bits per instruction (plus the sentinel and a
// small slack for padding and estimate error).
func (c *Compressor) SizeHint(nInsts int) int {
	est := c.estBitsPerInst
	if est <= 0 {
		est = 24 // conservative default when untrained
	}
	return (nInsts+1)*est/8 + 16
}

func sortU32(v []uint32) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}

// newMTF returns fresh per-stream MTF lists seeded from the alphabets, or
// nil when the transform is disabled.
func (c *Compressor) newMTF() []*mtfState {
	if !c.opts.MTF {
		return nil
	}
	out := make([]*mtfState, isa.NumStreams)
	for i := range out {
		out[i] = &mtfState{list: append([]uint32(nil), c.alphabets[i]...)}
	}
	return out
}

// Compress appends the merged codeword sequence for seq (plus the sentinel)
// to w. MTF state starts fresh for each sequence so regions decompress
// independently.
func (c *Compressor) Compress(w *huffman.BitWriter, seq []isa.Inst) error {
	mtf := c.newMTF()
	// One stack-resident scratch serves every field split in the region; the
	// encode loop allocates nothing per instruction.
	var fvbuf [8]isa.FieldValue
	for _, in := range seq {
		if in.Format == isa.FormatIllegal {
			return fmt.Errorf("streamcomp: illegal instruction inside region")
		}
		if err := c.encodeInst(w, in, mtf, fvbuf[:0]); err != nil {
			return err
		}
	}
	return c.encodeInst(w, sentinelInst, mtf, fvbuf[:0])
}

// encodeInst emits one instruction's codewords into w, splitting its fields
// into caller-provided scratch.
func (c *Compressor) encodeInst(w *huffman.BitWriter, in isa.Inst, mtf []*mtfState, scratch []isa.FieldValue) error {
	for _, fv := range isa.AppendFields(scratch, in) {
		v := fv.Value
		if mtf != nil {
			v = mtf[fv.Kind].encode(v)
		}
		if err := c.codes[fv.Kind].Encode(w, v); err != nil {
			return fmt.Errorf("streamcomp: %v stream: %w", fv.Kind, err)
		}
	}
	return nil
}

// Decompress reads one region's merged codeword sequence starting at bit
// offset bitOff of blob, invoking emit for each instruction until the
// sentinel. It returns the number of compressed bits consumed (sentinel
// included), which the simulator's cost model charges for.
func (c *Compressor) Decompress(blob []byte, bitOff int, emit func(isa.Inst) error) (bitsRead int, err error) {
	r := huffman.GetReader(blob)
	defer huffman.PutReader(r)
	r.Seek(bitOff)
	mtf := c.newMTF()
	// One stack-resident scratch holds each instruction's fields; FromFields
	// does not retain it, so the decode loop allocates nothing per
	// instruction.
	var fvbuf [8]isa.FieldValue
	for {
		op, err := c.decodeField(r, mtf, isa.StreamOpcode)
		if err != nil {
			return r.BitsRead() - bitOff, err
		}
		if op == isa.OpIllegal {
			return r.BitsRead() - bitOff, nil // sentinel
		}
		fv := append(fvbuf[:0], isa.FieldValue{Kind: isa.StreamOpcode, Value: op})
		// The opcode selects the remaining streams; for the operate group
		// the op.func stream (decoded before op.rb/op.lit) carries the
		// literal flag in its high bit.
		switch isa.FormatOf(op) {
		case isa.FormatOpReg:
			ra, err := c.decodeField(r, mtf, isa.StreamOpRA)
			if err != nil {
				return r.BitsRead() - bitOff, err
			}
			fn, err := c.decodeField(r, mtf, isa.StreamOpFunc)
			if err != nil {
				return r.BitsRead() - bitOff, err
			}
			bKind := isa.StreamOpRB
			if fn>>7&1 == 1 {
				bKind = isa.StreamOpLit
			}
			bv, err := c.decodeField(r, mtf, bKind)
			if err != nil {
				return r.BitsRead() - bitOff, err
			}
			rc, err := c.decodeField(r, mtf, isa.StreamOpRC)
			if err != nil {
				return r.BitsRead() - bitOff, err
			}
			fv = append(fv,
				isa.FieldValue{Kind: isa.StreamOpRA, Value: ra},
				isa.FieldValue{Kind: isa.StreamOpFunc, Value: fn},
				isa.FieldValue{Kind: bKind, Value: bv},
				isa.FieldValue{Kind: isa.StreamOpRC, Value: rc})
		case isa.FormatIllegal:
			return r.BitsRead() - bitOff, fmt.Errorf("streamcomp: undecodable opcode %#x", op)
		default:
			for _, ref := range isa.OperandFields(op, false) {
				v, err := c.decodeField(r, mtf, ref.Kind)
				if err != nil {
					return r.BitsRead() - bitOff, err
				}
				fv = append(fv, isa.FieldValue{Kind: ref.Kind, Value: v})
			}
		}
		if err := emit(isa.FromFields(fv)); err != nil {
			return r.BitsRead() - bitOff, err
		}
	}
}

// decodeField decodes one codeword of stream k from r, applying the inverse
// MTF transform when enabled.
func (c *Compressor) decodeField(r *huffman.BitReader, mtf []*mtfState, k isa.StreamKind) (uint32, error) {
	var v uint32
	var err error
	if c.slowDecode {
		v, err = c.codes[k].DecodeTree(r)
	} else {
		v, err = c.codes[k].Decode(r)
	}
	if err != nil {
		return 0, fmt.Errorf("streamcomp: %v stream: %w", k, err)
	}
	if mtf != nil {
		v = mtf[k].decode(v)
	}
	return v, nil
}

// MarshalBinary serializes the "code representation and value list for
// each stream" stored with the compressed program (§3): a flag byte (1
// under MTF, else 0), the fifteen codes framed by huffman.AppendCodes,
// then under MTF each alphabet as a length and its ascending values as
// uvarint deltas.
func (c *Compressor) MarshalBinary() ([]byte, error) {
	out := []byte{0}
	if c.opts.MTF {
		out[0] = 1
	}
	out, err := huffman.AppendCodes(out, c.codes[:]...)
	if err != nil {
		return nil, fmt.Errorf("streamcomp: %w", err)
	}
	if c.opts.MTF {
		for _, alpha := range c.alphabets {
			if out, err = huffman.AppendLen24(out, len(alpha)); err != nil {
				return nil, fmt.Errorf("streamcomp: %w", err)
			}
			prev := uint32(0)
			for _, v := range alpha {
				out = binary.AppendUvarint(out, uint64(v-prev)) // ascending deltas
				prev = v
			}
		}
	}
	return out, nil
}

// UnmarshalBinary deserializes tables written by MarshalBinary.
func (c *Compressor) UnmarshalBinary(data []byte) error {
	if len(data) < 1 {
		return fmt.Errorf("streamcomp: empty table blob")
	}
	if data[0] > 1 {
		return fmt.Errorf("streamcomp: unknown table flags %#x", data[0])
	}
	c.opts.MTF = data[0] == 1
	codes, pos, err := huffman.ReadCodes(data, 1, len(c.codes))
	if err != nil {
		return fmt.Errorf("streamcomp: %w", err)
	}
	copy(c.codes[:], codes)
	if c.opts.MTF {
		for i := range c.alphabets {
			// Each value takes at least one byte.
			n, p, err := huffman.ReadLen24(data, pos, 1)
			if err != nil {
				return fmt.Errorf("streamcomp: alphabet %d: %w", i, err)
			}
			pos = p
			alpha := make([]uint32, n)
			prev := uint64(0)
			for k := range alpha {
				v, m := binary.Uvarint(data[pos:])
				if m <= 0 {
					return fmt.Errorf("streamcomp: truncated alphabet for stream %d", i)
				}
				pos += m
				prev += v
				alpha[k] = uint32(prev)
			}
			c.alphabets[i] = alpha
		}
	} else {
		c.alphabets = [isa.NumStreams][]uint32{}
	}
	if pos != len(data) {
		return fmt.Errorf("streamcomp: %d trailing bytes", len(data)-pos)
	}
	return c.checkValues()
}

// checkValues verifies that every value a decode can produce fits its
// stream's field, so hostile tables are refused here rather than decoding
// to an instruction the assembler or the simulator cannot represent. Under
// MTF the codes carry alphabet indices, and the alphabets the values.
func (c *Compressor) checkValues() error {
	for k := isa.StreamKind(0); k < isa.NumStreams; k++ {
		values := c.codes[k].D
		if c.opts.MTF {
			for _, idx := range values {
				if int(idx) >= len(c.alphabets[k]) {
					return fmt.Errorf("streamcomp: %v MTF index %d outside the alphabet of %d", k, idx, len(c.alphabets[k]))
				}
			}
			values = c.alphabets[k]
		}
		for _, v := range values {
			if uint64(v) >= 1<<k.Bits() {
				return fmt.Errorf("streamcomp: %v value %d exceeds %d bits", k, v, k.Bits())
			}
		}
	}
	return nil
}

// mtfState is a move-to-front recency list for one stream, seeded with the
// stream's full sorted alphabet so every index is decodable.
type mtfState struct {
	list []uint32
}

// encode maps a value to its current recency index and fronts it. The value
// is always present because the alphabet was collected during training.
func (s *mtfState) encode(v uint32) uint32 {
	for i, x := range s.list {
		if x == v {
			copy(s.list[1:], s.list[:i])
			s.list[0] = v
			return uint32(i)
		}
	}
	panic(fmt.Sprintf("streamcomp: MTF value %d outside trained alphabet", v))
}

// decode maps a recency index back to its value and fronts it.
func (s *mtfState) decode(idx uint32) uint32 {
	if int(idx) >= len(s.list) {
		panic(fmt.Sprintf("streamcomp: MTF index %d outside alphabet of %d", idx, len(s.list)))
	}
	v := s.list[idx]
	copy(s.list[1:], s.list[:idx])
	s.list[0] = v
	return v
}
