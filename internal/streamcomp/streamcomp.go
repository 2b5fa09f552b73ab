// Package streamcomp implements the paper's compression scheme (§3): a
// simplified "splitting streams" coder. Each instruction is decomposed into
// typed operand fields; the values of each field type form a stream; each
// stream gets its own canonical Huffman code; and the codeword sequences of
// all streams are merged into a single bit sequence, because the opcode —
// always decoded first — fully determines which streams supply the
// remaining fields of the instruction.
//
// The coder works on 32-bit instruction words: isa.LayoutOf gives each
// format's fields as (stream, shift, width) bit fields, so splitting a word
// into stream values and joining decoded values back into a word are
// shifts and masks, with no decoded instruction in between. Every
// compressed region ends with a sentinel (an illegal opcode) that tells
// the decompressor to stop (§2.1).
//
// An optional move-to-front transform can be applied per stream before
// Huffman coding; the paper notes it buys slightly better compression for
// some streams at the cost of a larger, slower decompressor (§3). It is off
// by default and exercised by the ablation benchmarks.
package streamcomp

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

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

// Train builds the per-stream codes from the field-value frequencies of all
// word sequences that will be compressed (the first pass of the paper's
// two-pass process). A sentinel per sequence is included. Concurrent
// Compress calls share the returned compressor safely, since
// huffman.BuildSorted returns codes with their encoders already built; only
// the decode tables wait for a first decode. Train does not check the
// words; Compress refuses non-canonical ones.
func Train(seqs [][]uint32, opts Options) *Compressor {
	c := &Compressor{opts: opts}
	if opts.MTF {
		// Alphabet collection fans out too: a stream's alphabet is every
		// value counted at least once, which no merge order changes.
		seen := countChunks(seqs, opts.Workers, countFields)
		for k := range c.alphabets {
			c.alphabets[k], _ = seen.sorted(isa.StreamKind(k))
		}
		putStreamCounts(seen)
	}

	// Frequency counting is per sequence (each sequence restarts its MTF
	// state), so it fans out; the merged counts are sums, identical at any
	// worker count.
	count := countFields
	if opts.MTF {
		count = func(f *streamCounts, seq []uint32) {
			mtf := c.newMTF()
			for _, w := range seq {
				lay := isa.LayoutOf(w)
				countWord(f, mtfWord(mtf, w, lay), lay.Format)
			}
			f.addDense(isa.StreamOpcode, mtf[isa.StreamOpcode].encode(isa.OpIllegal))
		}
	}
	freqs := countChunks(seqs, opts.Workers, count)
	var totalBits, totalInsts uint64
	for k := range c.codes {
		values, counts := freqs.sorted(isa.StreamKind(k))
		c.codes[k] = huffman.BuildSorted(values, counts)
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

// countFields counts every field value of seq's words, and the region's
// sentinel opcode, into f.
func countFields(f *streamCounts, seq []uint32) {
	for _, w := range seq {
		countWord(f, w, isa.LayoutOf(w).Format)
	}
	f.addDense(isa.StreamOpcode, isa.OpIllegal)
}

// countWord counts the opcode and the fields of w, split as format splits
// a word. Each case spells out its format's isa.LayoutOf fields (stream,
// shift and width, in decode order; TestFormatCasesMatchLayout holds them
// to it), so a field costs a shift, a mask and a count, with no loop over
// the layout and no dense-or-map branch. An illegal-format word has only
// its opcode.
func countWord(f *streamCounts, w uint32, format isa.Format) {
	f.addDense(isa.StreamOpcode, w>>26)
	switch format {
	case isa.FormatPal:
		f.addSparse(isa.StreamPalFunc, w&(1<<26-1))
	case isa.FormatMem:
		f.addDense(isa.StreamMemRA, w>>21&31)
		f.addDense(isa.StreamMemRB, w>>16&31)
		f.addDense(isa.StreamMemDisp, w&0xFFFF)
	case isa.FormatBranch:
		f.addDense(isa.StreamBrRA, w>>21&31)
		f.addSparse(isa.StreamBrDisp, w&(1<<21-1))
	case isa.FormatOpReg:
		f.addDense(isa.StreamOpRA, w>>21&31)
		f.addDense(isa.StreamOpFunc, w>>5&0xFF)
		f.addDense(isa.StreamOpRB, w>>16&31)
		f.addDense(isa.StreamOpRC, w&31)
	case isa.FormatOpLit:
		f.addDense(isa.StreamOpRA, w>>21&31)
		f.addDense(isa.StreamOpFunc, w>>5&0xFF)
		f.addDense(isa.StreamOpLit, w>>13&0xFF)
		f.addDense(isa.StreamOpRC, w&31)
	case isa.FormatJump:
		f.addDense(isa.StreamJmpRA, w>>21&31)
		f.addDense(isa.StreamJmpRB, w>>16&31)
		f.addDense(isa.StreamJmpHint, w&0xFFFF)
	}
}

// denseBits is the widest stream counted in a flat array: the 16-bit
// displacement and hint streams take 64 Ki counters each; only the 21-bit
// branch displacements and 26-bit PAL codes are counted in maps.
const denseBits = 16

// streamCounts holds one value→count table per operand stream: a flat
// array indexed by value for streams of at most denseBits bits, a map for
// the wider ones. A count stays below 2^32 because no image holds that many
// instructions.
//
// seen marks, one bit per value, the values a flat array has counted since
// it was last cleared, so listing, merging and clearing the tables visit
// the values a training corpus touched rather than all 64 Ki slots of the
// displacement and hint streams.
type streamCounts struct {
	dense  [isa.NumStreams][]uint32
	seen   [isa.NumStreams][]uint64
	sparse [isa.NumStreams]map[uint32]uint64
}

// The flat arrays come to about half a MiB, too much to allocate and zero
// for every squash, so count tables recycle. A collection empties
// countsPool, and one runs between most squashes, so one table is kept
// outside it (spareCounts), where a collection cannot drop it, as
// core.spareScratch keeps the sequence arena; concurrent trainings beyond
// the first share the pool.
var (
	countsPool = sync.Pool{New: func() any {
		f := new(streamCounts)
		for k := range f.dense {
			if width := isa.StreamKind(k).Bits(); width <= denseBits {
				f.dense[k] = make([]uint32, 1<<width)
				f.seen[k] = make([]uint64, (1<<width+63)/64)
			} else {
				f.sparse[k] = make(map[uint32]uint64)
			}
		}
		return f
	}}
	spareCounts atomic.Pointer[streamCounts]
)

func getStreamCounts() *streamCounts {
	if f := spareCounts.Swap(nil); f != nil {
		return f
	}
	return countsPool.Get().(*streamCounts)
}

// putStreamCounts zeroes the values f counted and recycles it.
func putStreamCounts(f *streamCounts) {
	for k := range f.dense {
		if d := f.dense[k]; d != nil {
			forSeen(f.seen[k], func(v uint32) { d[v] = 0 })
			clear(f.seen[k])
		}
		clear(f.sparse[k])
	}
	if !spareCounts.CompareAndSwap(nil, f) {
		countsPool.Put(f)
	}
}

// forSeen calls fn on every value marked in seen, ascending.
func forSeen(seen []uint64, fn func(v uint32)) {
	for i, w := range seen {
		for ; w != 0; w &= w - 1 {
			fn(uint32(i*64 + bits.TrailingZeros64(w)))
		}
	}
}

// addDense counts one occurrence of value v in stream k, a stream of at
// most denseBits bits.
func (f *streamCounts) addDense(k isa.StreamKind, v uint32) {
	d := f.dense[k]
	if d[v] == 0 {
		f.seen[k][v>>6] |= 1 << (v & 63)
	}
	d[v]++
}

// addSparse is addDense for a stream wider than denseBits.
func (f *streamCounts) addSparse(k isa.StreamKind, v uint32) { f.sparse[k][v]++ }

// merge adds o's counts into f.
func (f *streamCounts) merge(o *streamCounts) {
	for k := range f.dense {
		if d, od := f.dense[k], o.dense[k]; d != nil {
			forSeen(o.seen[k], func(v uint32) { d[v] += od[v] })
			for i, w := range o.seen[k] {
				f.seen[k][i] |= w
			}
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
		for _, w := range f.seen[k] {
			n += bits.OnesCount64(w)
		}
		values, counts := make([]uint32, 0, n), make([]uint64, 0, n)
		forSeen(f.seen[k], func(v uint32) {
			values = append(values, v)
			counts = append(counts, uint64(d[v]))
		})
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

// countChunks runs count over every sequence, split into one contiguous
// chunk of sequences per worker. Each chunk counts into its own pooled
// tables and the chunks' tables are then summed, so the result is the same
// at any worker count. The caller returns the result to the pool.
func countChunks(seqs [][]uint32, workers int, count func(f *streamCounts, seq []uint32)) *streamCounts {
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

// mtfWord returns w with its opcode and each field of its layout replaced
// by the value's move-to-front index in the field's stream, and fronts each
// value. A word uses each stream at most once, so stepping its fields
// together gives the indices a field-by-field walk would. An index fits its
// field: an alphabet holds distinct values of the stream's width.
func mtfWord(mtf []*mtfState, w uint32, lay *isa.WordLayout) uint32 {
	t := mtf[isa.StreamOpcode].encode(w>>26) << 26
	for _, r := range lay.Fields {
		t |= mtf[r.Kind].encode(w>>r.Shift&(1<<r.Bits-1)) << r.Shift
	}
	return t
}

// Compress appends the merged codeword sequence for seq (plus the sentinel)
// to w. MTF state starts fresh for each sequence so regions decompress
// independently. A word its format's fields do not cover (an illegal
// opcode, the sentinel, an operate word with sbz bits set) is refused:
// the decoder could not give it back.
//
// Each format is one case that names its streams in decode order, as
// countWord does, so a field costs a shift, a mask, an inlined table
// lookup and an inlined bit write. Streams of at most 8 bits always have a
// dense table (Code.Dense); the wider ones may have either (Code.Lookup).
// Under MTF the word's fields are replaced by their recency indices first,
// and the same cases code those. A field BitWriter.Put cannot write (an
// absent value, a codeword past 32 bits) sends the rest of the word to
// finishWord.
func (c *Compressor) Compress(w *huffman.BitWriter, seq []uint32) error {
	mtf := c.newMTF()
	cs := &c.codes
	for _, word := range seq {
		lay := isa.LayoutOf(word)
		if word&^lay.Cover != 0 {
			return fmt.Errorf("streamcomp: word %#08x is not a canonical region instruction", word)
		}
		v := word
		if mtf != nil {
			v = mtfWord(mtf, word, lay)
		}
		mark := w.Len()
		ok := w.Put(cs[isa.StreamOpcode].Dense(v >> 26))
		switch lay.Format {
		case isa.FormatPal:
			ok = ok && w.Put(cs[isa.StreamPalFunc].Lookup(v&(1<<26-1)))
		case isa.FormatMem:
			ok = ok && w.Put(cs[isa.StreamMemRA].Dense(v>>21&31)) &&
				w.Put(cs[isa.StreamMemRB].Dense(v>>16&31)) &&
				w.Put(cs[isa.StreamMemDisp].Lookup(v&0xFFFF))
		case isa.FormatBranch:
			ok = ok && w.Put(cs[isa.StreamBrRA].Dense(v>>21&31)) &&
				w.Put(cs[isa.StreamBrDisp].Lookup(v&(1<<21-1)))
		case isa.FormatOpReg:
			ok = ok && w.Put(cs[isa.StreamOpRA].Dense(v>>21&31)) &&
				w.Put(cs[isa.StreamOpFunc].Dense(v>>5&0xFF)) &&
				w.Put(cs[isa.StreamOpRB].Dense(v>>16&31)) &&
				w.Put(cs[isa.StreamOpRC].Dense(v&31))
		case isa.FormatOpLit:
			ok = ok && w.Put(cs[isa.StreamOpRA].Dense(v>>21&31)) &&
				w.Put(cs[isa.StreamOpFunc].Dense(v>>5&0xFF)) &&
				w.Put(cs[isa.StreamOpLit].Dense(v>>13&0xFF)) &&
				w.Put(cs[isa.StreamOpRC].Dense(v&31))
		case isa.FormatJump:
			ok = ok && w.Put(cs[isa.StreamJmpRA].Dense(v>>21&31)) &&
				w.Put(cs[isa.StreamJmpRB].Dense(v>>16&31)) &&
				w.Put(cs[isa.StreamJmpHint].Lookup(v&0xFFFF))
		}
		if !ok {
			if err := c.finishWord(w, lay, v, w.Len()-mark); err != nil {
				return err
			}
		}
	}
	op := isa.OpIllegal
	if mtf != nil {
		op = mtf[isa.StreamOpcode].encode(op)
	}
	if err := cs[isa.StreamOpcode].Encode(w, op); err != nil {
		return fieldError(isa.StreamOpcode, err)
	}
	return nil
}

// finishWord is Compress's cold path. The fast path wrote the first fields
// of v, a word of layout lay, as written bits, and stopped at a field
// BitWriter.Put refused. finishWord walks the layout past those fields and
// encodes the rest through Code.Encode, which writes a long codeword and
// names an absent value, so the error is the one a field-by-field encoder
// gives. A stop at a field Put takes, or between fields, means the format's
// case strayed from its layout; that is reported rather than papered over.
func (c *Compressor) finishWord(w *huffman.BitWriter, lay *isa.WordLayout, v uint32, written int) error {
	stopped := false
	put := func(k isa.StreamKind, x uint32) error {
		n := c.codes[k].CodeLen(x)
		if written > 0 {
			written -= n // written by the fast path
			return nil
		}
		if written < 0 || !stopped && n > 0 && n <= 32 {
			return fmt.Errorf("streamcomp: the %v case strayed from its layout before the %v field", lay.Format, k)
		}
		stopped = true
		if err := c.codes[k].Encode(w, x); err != nil {
			return fieldError(k, err)
		}
		return nil
	}
	if err := put(isa.StreamOpcode, v>>26); err != nil {
		return err
	}
	for _, r := range lay.Fields {
		if err := put(r.Kind, v>>r.Shift&(1<<r.Bits-1)); err != nil {
			return err
		}
	}
	if !stopped {
		return fmt.Errorf("streamcomp: the %v case stopped past its layout", lay.Format)
	}
	return nil
}

// fieldError names the stream whose code refused a value.
func fieldError(k isa.StreamKind, err error) error {
	return fmt.Errorf("streamcomp: %v stream: %w", k, err)
}

// Decompress is DecompressWords for callers that want decoded
// instructions.
func (c *Compressor) Decompress(blob []byte, bitOff int, emit func(isa.Inst) error) (bitsRead int, err error) {
	return c.DecompressWords(blob, bitOff, func(w uint32) error { return emit(isa.Decode(w)) })
}

// DecompressWords reads one region's merged codeword sequence starting at
// bit offset bitOff of blob, joining each instruction's fields into its
// word and invoking emit for it until the sentinel. Every word it emits is
// canonical: the opcode must name a legal format, and UnmarshalBinary (or
// Train) bounded every value to its field's width. It returns the number
// of compressed bits consumed (sentinel included), which the simulator's
// cost model charges for.
func (c *Compressor) DecompressWords(blob []byte, bitOff int, emit func(uint32) error) (bitsRead int, err error) {
	r := huffman.GetReader(blob)
	defer huffman.PutReader(r)
	r.Seek(bitOff)
	mtf := c.newMTF()
	for {
		op, err := c.decodeField(r, mtf, isa.StreamOpcode)
		if err != nil {
			return r.BitsRead() - bitOff, err
		}
		if op == isa.OpIllegal {
			return r.BitsRead() - bitOff, nil // sentinel
		}
		w := op << 26
		lay := isa.LayoutOf(w)
		if lay.Cover == 0 {
			return r.BitsRead() - bitOff, fmt.Errorf("streamcomp: undecodable opcode %#x", op)
		}
		// The opcode selects the remaining streams; for the operate group
		// the op.func value (decoded before op.rb/op.lit) carries the
		// literal flag in its high bit, which switches to the OpLit
		// layout, whose first two fields are the same.
		fields := lay.Fields
		for i := 0; i < len(fields); i++ {
			f := fields[i]
			v, err := c.decodeField(r, mtf, f.Kind)
			if err != nil {
				return r.BitsRead() - bitOff, err
			}
			w |= v << f.Shift
			if f.Kind == isa.StreamOpFunc {
				fields = isa.LayoutOf(w).Fields
			}
		}
		if err := emit(w); err != nil {
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
		return 0, fieldError(k, err)
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
				if k > 0 && v == 0 {
					return fmt.Errorf("streamcomp: alphabet for stream %d repeats value %d", i, prev)
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
