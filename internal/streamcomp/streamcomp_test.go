package streamcomp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/huffman"
	"repro/internal/isa"
)

// words encodes instructions into the words the coder takes.
func words(insts ...isa.Inst) []uint32 {
	out := make([]uint32, len(insts))
	for i, in := range insts {
		out[i] = isa.Encode(in)
	}
	return out
}

// realisticSeq builds an instruction word sequence with the skewed field
// distributions of real code (stack ops, small displacements, common regs).
func realisticSeq(seed int64, n int) []uint32 {
	r := rand.New(rand.NewSource(seed))
	out := make([]isa.Inst, 0, n)
	regs := []uint32{isa.RegV0, isa.RegT0, isa.RegT0 + 1, isa.RegA0, isa.RegA1, isa.RegSP, isa.RegS0}
	reg := func() uint32 { return regs[r.Intn(len(regs))] }
	for len(out) < n {
		switch r.Intn(10) {
		case 0, 1:
			out = append(out, isa.Mem(isa.OpLDW, reg(), isa.RegSP, int32(4*r.Intn(8))))
		case 2:
			out = append(out, isa.Mem(isa.OpSTW, reg(), isa.RegSP, int32(4*r.Intn(8))))
		case 3, 4:
			out = append(out, isa.OpR(isa.OpIntA, reg(), reg(), isa.FnADD, reg()))
		case 5:
			out = append(out, isa.OpL(isa.OpIntA, reg(), uint32(r.Intn(16)), isa.FnSUB, reg()))
		case 6:
			out = append(out, isa.Br(isa.OpBEQ, reg(), int32(r.Intn(64))-32))
		case 7:
			out = append(out, isa.Br(isa.OpBSR, isa.RegRA, int32(r.Intn(1024))))
		case 8:
			out = append(out, isa.OpR(isa.OpIntL, reg(), reg(), isa.FnBIS, reg()))
		case 9:
			out = append(out, isa.Jump(isa.JmpRET, isa.RegZero, isa.RegRA, 0))
		}
	}
	return words(out...)
}

// codedBits compresses seq into a fresh writer and returns its coded size
// in bits, sentinel included.
func codedBits(tb testing.TB, c *Compressor, seq []uint32) int {
	tb.Helper()
	var w huffman.BitWriter
	if err := c.Compress(&w, seq); err != nil {
		tb.Fatal(err)
	}
	return w.Len()
}

func roundTrip(t *testing.T, opts Options, seqs [][]uint32) {
	t.Helper()
	c := Train(seqs, opts)
	var w huffman.BitWriter
	offsets := make([]int, len(seqs))
	for i, seq := range seqs {
		offsets[i] = w.Len()
		if err := c.Compress(&w, seq); err != nil {
			t.Fatalf("Compress region %d: %v", i, err)
		}
	}
	blob := w.Bytes()
	for i, seq := range seqs {
		var got []uint32
		bits, err := c.DecompressWords(blob, offsets[i], func(w uint32) error {
			got = append(got, w)
			return nil
		})
		if err != nil {
			t.Fatalf("Decompress region %d: %v", i, err)
		}
		if bits <= 0 {
			t.Fatalf("region %d: nonpositive bits read", i)
		}
		if len(got) != len(seq) {
			t.Fatalf("region %d: decoded %d instructions, want %d", i, len(got), len(seq))
		}
		for k := range seq {
			if got[k] != seq[k] {
				t.Fatalf("region %d inst %d: got %v, want %v", i, k, got[k], seq[k])
			}
		}
	}
}

func TestRoundTripRealistic(t *testing.T) {
	seqs := [][]uint32{
		realisticSeq(1, 40),
		realisticSeq(2, 7),
		realisticSeq(3, 128),
		realisticSeq(4, 1),
	}
	roundTrip(t, Options{}, seqs)
}

func TestRoundTripMTF(t *testing.T) {
	seqs := [][]uint32{
		realisticSeq(5, 60),
		realisticSeq(6, 13),
		realisticSeq(7, 99),
	}
	roundTrip(t, Options{MTF: true}, seqs)
}

func TestRoundTripRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		insts := isa.RandInsts(seed, 50)
		// Drop illegal-format instructions (sentinels may not appear
		// inside a region).
		var seq []uint32
		for _, in := range insts {
			if in.Format != isa.FormatIllegal {
				seq = append(seq, isa.Encode(in))
			}
		}
		seqs := [][]uint32{seq, seq[:len(seq)/2]}
		c := Train(seqs, Options{})
		var w huffman.BitWriter
		var offsets []int
		for _, s := range seqs {
			offsets = append(offsets, w.Len())
			if err := c.Compress(&w, s); err != nil {
				return false
			}
		}
		blob := w.Bytes()
		for i, s := range seqs {
			var got []uint32
			if _, err := c.DecompressWords(blob, offsets[i], func(w uint32) error {
				got = append(got, w)
				return nil
			}); err != nil {
				return false
			}
			if len(got) != len(s) {
				return false
			}
			for k := range s {
				if got[k] != s[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualOpcodesRoundTrip(t *testing.T) {
	seq := words(
		isa.Br(isa.OpBSRX, isa.RegRA, 1234),
		isa.Inst{Op: isa.OpJSRX, Format: isa.FormatJump, RA: isa.RegRA, RB: isa.RegPV},
		isa.Br(isa.OpBSR, isa.RegRA, -7),
	)
	roundTrip(t, Options{}, [][]uint32{seq})
}

func TestCompressRejectsSentinelInRegion(t *testing.T) {
	c := Train([][]uint32{words(isa.Nop())}, Options{})
	var w huffman.BitWriter
	err := c.Compress(&w, []uint32{isa.Sentinel})
	if err == nil {
		t.Fatal("expected error for sentinel inside region")
	}
}

// TestCompressRejectsNonCanonicalWords: Compress refuses a word its
// format's fields do not cover, which the decoder could not give back: an
// operate-register word with sbz[15:13] set, illegal opcodes.
func TestCompressRejectsNonCanonicalWords(t *testing.T) {
	seq := realisticSeq(8, 200)
	c := Train([][]uint32{seq}, Options{})
	add := isa.Encode(isa.OpR(isa.OpIntA, isa.RegT0, isa.RegT0+1, isa.FnADD, isa.RegT0+2))
	for _, bad := range []uint32{add | 1<<13, add | 7<<13, 0x01 << 26, 0x3E<<26 | 0x1234} {
		if isa.Canonical(bad) {
			t.Fatalf("%#08x: test word is canonical", bad)
		}
		var w huffman.BitWriter
		err := c.Compress(&w, []uint32{seq[0], bad, seq[1]})
		if err == nil {
			t.Errorf("%#08x: Compress accepted a non-canonical word", bad)
		}
	}
}

func TestEmptyRegion(t *testing.T) {
	roundTrip(t, Options{}, [][]uint32{{}})
}

func TestCompressionBeatsRawEncoding(t *testing.T) {
	// Realistic code must compress well below 32 bits/instruction; the
	// paper reports ≈66% of original size, i.e. ≈21 bits. Allow a generous
	// margin for this small synthetic sample but require real compression.
	seqs := [][]uint32{realisticSeq(11, 2000)}
	c := Train(seqs, Options{})
	bits := codedBits(t, c, seqs[0])
	perInst := float64(bits) / float64(len(seqs[0]))
	if perInst >= 28 {
		t.Fatalf("%.1f bits/instruction; expected meaningful compression below 28", perInst)
	}
	t.Logf("%.1f bits per instruction (raw: 32)", perInst)
}

func TestSerializeRoundTrip(t *testing.T) {
	for _, opts := range []Options{{}, {MTF: true}} {
		seqs := [][]uint32{realisticSeq(21, 120), realisticSeq(22, 60)}
		c := Train(seqs, opts)
		blob, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Compressor
		if err := back.UnmarshalBinary(blob); err != nil {
			t.Fatalf("UnmarshalBinary (MTF=%v): %v", opts.MTF, err)
		}
		// The deserialized compressor must decode data compressed by the
		// original.
		var w huffman.BitWriter
		if err := c.Compress(&w, seqs[0]); err != nil {
			t.Fatal(err)
		}
		var got []uint32
		if _, err := back.DecompressWords(w.Bytes(), 0, func(w uint32) error {
			got = append(got, w)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(seqs[0]) {
			t.Fatalf("decoded %d instructions, want %d", len(got), len(seqs[0]))
		}
		for i := range got {
			if got[i] != seqs[0][i] {
				t.Fatalf("inst %d differs after serialize round trip", i)
			}
		}
	}
}

func TestDecompressDetectsCorruption(t *testing.T) {
	seqs := [][]uint32{realisticSeq(31, 100)}
	c := Train(seqs, Options{})
	var w huffman.BitWriter
	if err := c.Compress(&w, seqs[0]); err != nil {
		t.Fatal(err)
	}
	blob := w.Bytes()
	// Flip bits; decoding must either error or stop, never loop forever.
	for i := 0; i < len(blob); i += 7 {
		corrupted := append([]byte(nil), blob...)
		corrupted[i] ^= 0xA5
		n := 0
		_, err := c.DecompressWords(corrupted, 0, func(uint32) error {
			n++
			if n > 10*len(seqs[0]) {
				t.Fatal("decoder ran away on corrupted input")
			}
			return nil
		})
		_ = err // error or early sentinel are both acceptable
	}
}

func TestMTFCompressesRepetitiveStreamsBetter(t *testing.T) {
	// A sequence cycling through a few distinct displacement values with
	// strong recency should favor MTF.
	var seq []uint32
	disps := []int32{0, 4, 8, 1000, 2000, 3000, 4000, 5000, 6000, 7000}
	for i := 0; i < 600; i++ {
		d := disps[(i/20)%len(disps)]
		seq = append(seq, isa.Encode(isa.Mem(isa.OpLDW, isa.RegT0, isa.RegSP, d)))
	}
	plain := Train([][]uint32{seq}, Options{})
	mtf := Train([][]uint32{seq}, Options{MTF: true})
	pb, mb := codedBits(t, plain, seq), codedBits(t, mtf, seq)
	t.Logf("plain %d bits, MTF %d bits", pb, mb)
	// MTF should not be dramatically worse on recency-heavy data.
	if float64(mb) > 1.3*float64(pb) {
		t.Fatalf("MTF %d bits much worse than plain %d", mb, pb)
	}
}

// TestUnmarshalRejectsOutOfRangeValues: tables that would decode a field
// value its instruction field cannot hold (a register above 31, an MTF
// index past the alphabet) are refused when they load, so no decode can
// hand the runtime an instruction it cannot assemble or execute.
func TestUnmarshalRejectsOutOfRangeValues(t *testing.T) {
	seqs := [][]uint32{realisticSeq(1, 400)}
	k := isa.StreamMemRA
	for _, c := range []struct {
		name string
		mtf  bool
		edit func(c *Compressor)
	}{
		{"register value", false, func(c *Compressor) { d := c.codes[k].D; d[len(d)-1] = 32 }},
		{"alphabet value", true, func(c *Compressor) { a := c.alphabets[k]; a[len(a)-1] = 32 }},
		// A repeat would let an alphabet outgrow its field, and an MTF
		// index with it.
		{"repeated alphabet value", true, func(c *Compressor) { a := c.alphabets[k]; a[1] = a[0] }},
		{"MTF index", true, func(c *Compressor) { d := c.codes[k].D; d[len(d)-1] = uint32(len(c.alphabets[k])) }},
	} {
		tables, err := Train(seqs, Options{MTF: c.mtf}).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var hostile Compressor
		if err := hostile.UnmarshalBinary(tables); err != nil {
			t.Fatalf("%s: trained tables: %v", c.name, err)
		}
		c.edit(&hostile)
		if tables, err = hostile.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		var got Compressor
		if err := got.UnmarshalBinary(tables); err == nil {
			t.Errorf("%s: out-of-range tables loaded", c.name)
		}
	}
}

// TestUnmarshalRejectsBadFraming: the flag byte is 0 or 1 and nothing
// else, and every truncation or extension of a table blob is refused.
func TestUnmarshalRejectsBadFraming(t *testing.T) {
	seqs := [][]uint32{realisticSeq(3, 200)}
	for _, opts := range []Options{{}, {MTF: true}} {
		tables, err := Train(seqs, opts).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for _, flag := range []byte{2, 7, 0x80, 0xFF} {
			bad := append([]byte{flag}, tables[1:]...)
			if err := new(Compressor).UnmarshalBinary(bad); err == nil {
				t.Errorf("MTF=%v: flag byte %#x accepted", opts.MTF, flag)
			}
		}
		for n := 0; n < len(tables); n++ {
			if err := new(Compressor).UnmarshalBinary(tables[:n]); err == nil {
				t.Fatalf("MTF=%v: truncated tables (%d of %d bytes) accepted", opts.MTF, n, len(tables))
			}
		}
		if err := new(Compressor).UnmarshalBinary(append(tables, 0)); err == nil {
			t.Errorf("MTF=%v: trailing byte accepted", opts.MTF)
		}
	}
}

// TestStreamBitsSumToBlob: the per-stream bit totals StreamBits reports
// add up to the bits Compress writes for the same sequences, sentinels
// included, with and without MTF.
func TestStreamBitsSumToBlob(t *testing.T) {
	seqs := [][]uint32{realisticSeq(61, 500), {}, realisticSeq(62, 90)}
	for _, opts := range []Options{{}, {MTF: true}} {
		c := Train(seqs, opts)
		var w huffman.BitWriter
		for _, seq := range seqs {
			if err := c.Compress(&w, seq); err != nil {
				t.Fatal(err)
			}
		}
		var sum uint64
		for _, b := range c.StreamBits(seqs) {
			sum += b
		}
		if sum != uint64(w.Len()) {
			t.Errorf("MTF=%v: stream bits sum to %d, Compress wrote %d", opts.MTF, sum, w.Len())
		}
	}
}

// TestFormatCasesMatchLayout holds the per-format cases of countWord and
// Compress to isa.LayoutOf: each case must give every field of its layout
// (stream, shift and width) and no other stream a value. For every opcode,
// and both literal-flag settings, it probes each field with a word whose
// field alone is all ones (a wrong stream, shift or narrower width shows)
// and one whose field alone is zero (a wider width shows). The count pass
// must count exactly the layout's values. The encode pass, given a
// one-value code per stream holding that value, must encode the word in
// one bit per field with no absent value.
func TestFormatCasesMatchLayout(t *testing.T) {
	for i := uint32(0); i < 128; i++ {
		base := i>>1<<26 | i&1<<12
		lay := isa.LayoutOf(base)
		flag := base & (1 << 12)
		if flag != 0 && lay.Format != isa.FormatOpLit {
			continue // bit 12 is an operand bit of this format, not a flag
		}
		var probes []uint32
		for _, r := range lay.Fields {
			field := uint32(1<<r.Bits-1) << r.Shift
			probes = append(probes, base|field, base|^field&(1<<26-1))
		}
		if len(lay.Fields) == 0 {
			probes = append(probes, base, base|(1<<26-1))
		}
		for _, p := range probes {
			w := p&^(1<<12) | flag
			if isa.LayoutOf(w) != lay {
				t.Fatalf("%#08x: probe %#08x left the %v layout", base, w, lay.Format)
			}
			want := map[isa.StreamKind]uint32{isa.StreamOpcode: w >> 26}
			for _, r := range lay.Fields {
				want[r.Kind] = w >> r.Shift & (1<<r.Bits - 1)
			}

			f := getStreamCounts()
			countWord(f, w, lay.Format)
			for k := isa.StreamKind(0); k < isa.NumStreams; k++ {
				values, counts := f.sorted(k)
				v, ok := want[k]
				switch {
				case !ok && len(values) != 0:
					t.Errorf("%v word %#08x: count pass gave %v values %v, not in the layout", lay.Format, w, k, values)
				case ok && (len(values) != 1 || values[0] != v || counts[0] != 1):
					t.Errorf("%v word %#08x: count pass gave %v values %v, layout says %#x", lay.Format, w, k, values, v)
				}
			}
			putStreamCounts(f)

			if lay.Format == isa.FormatIllegal {
				continue // Compress refuses these words
			}
			w &= lay.Cover
			c := &Compressor{}
			for k := range c.codes {
				c.codes[k] = huffman.Build(nil)
			}
			c.codes[isa.StreamOpcode] = huffman.Build(map[uint32]uint64{w >> 26: 1, isa.OpIllegal: 1})
			for _, r := range lay.Fields {
				c.codes[r.Kind] = huffman.Build(map[uint32]uint64{w >> r.Shift & (1<<r.Bits - 1): 1})
			}
			var bw huffman.BitWriter
			if err := c.Compress(&bw, []uint32{w}); err != nil {
				t.Errorf("%v word %#08x: encode pass: %v", lay.Format, w, err)
			} else if n := 1 + len(lay.Fields) + 1; bw.Len() != n {
				t.Errorf("%v word %#08x: encode pass wrote %d bits, want %d (opcode, fields, sentinel)", lay.Format, w, bw.Len(), n)
			}
		}
	}
}
