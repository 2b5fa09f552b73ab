package lzcomp

import (
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/huffman"
	"repro/internal/isa"
	"repro/internal/mediabench"
	"repro/internal/objfile"
	"repro/internal/streamcomp"
)

// compressSeqs compresses every region in turn into one writer and returns
// the blob with each region's starting bit.
// wordsOf encodes an instruction sequence into the words the coder takes.
func wordsOf(seq []isa.Inst) []uint32 {
	out := make([]uint32, len(seq))
	for i, in := range seq {
		out[i] = isa.Encode(in)
	}
	return out
}

// wordSeqs is wordsOf over every sequence.
func wordSeqs(seqs [][]isa.Inst) [][]uint32 {
	out := make([][]uint32, len(seqs))
	for i, seq := range seqs {
		out[i] = wordsOf(seq)
	}
	return out
}

func compressSeqs(tb testing.TB, c *Compressor, seqs [][]isa.Inst) ([]byte, []uint32) {
	tb.Helper()
	var w huffman.BitWriter
	offsets := make([]uint32, len(seqs))
	for i, s := range seqs {
		offsets[i] = uint32(w.Len())
		if err := c.Compress(&w, wordsOf(s)); err != nil {
			tb.Fatalf("Compress region %d: %v", i, err)
		}
	}
	return w.Bytes(), offsets
}

// codedBits is the coded size of seq in bits, terminator included, under
// either region coder.
func codedBits(tb testing.TB, c interface {
	Compress(*huffman.BitWriter, []uint32) error
}, seq []isa.Inst) int {
	tb.Helper()
	var w huffman.BitWriter
	if err := c.Compress(&w, wordsOf(seq)); err != nil {
		tb.Fatal(err)
	}
	return w.Len()
}

// tableBytes is the serialized size of a coder's tables.
func tableBytes(tb testing.TB, c interface{ MarshalBinary() ([]byte, error) }) int {
	tb.Helper()
	b, err := c.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return len(b)
}

func roundTrip(t *testing.T, seqs [][]isa.Inst) *Compressor {
	t.Helper()
	c := Train(wordSeqs(seqs))
	var w huffman.BitWriter
	offsets := make([]int, len(seqs))
	for i, s := range seqs {
		offsets[i] = w.Len()
		if err := c.Compress(&w, wordsOf(s)); err != nil {
			t.Fatalf("Compress region %d: %v", i, err)
		}
	}
	blob := w.Bytes()
	for i, s := range seqs {
		var got []isa.Inst
		if _, err := c.Decompress(blob, offsets[i], func(in isa.Inst) error {
			got = append(got, in)
			return nil
		}); err != nil {
			t.Fatalf("Decompress region %d: %v", i, err)
		}
		if len(got) != len(s) {
			t.Fatalf("region %d: %d instructions, want %d", i, len(got), len(s))
		}
		for k := range s {
			if isa.Encode(got[k]) != isa.Encode(s[k]) {
				t.Fatalf("region %d inst %d differs", i, k)
			}
		}
	}
	return c
}

func TestRoundTripRepetitive(t *testing.T) {
	// Heavy repetition: LZ's best case.
	var seq []isa.Inst
	for i := 0; i < 30; i++ {
		seq = append(seq,
			isa.Mem(isa.OpLDW, isa.RegT0, isa.RegSP, 8),
			isa.OpR(isa.OpIntA, isa.RegT0, isa.RegT0+1, isa.FnADD, isa.RegT0),
			isa.Mem(isa.OpSTW, isa.RegT0, isa.RegSP, 8),
		)
	}
	c := roundTrip(t, [][]isa.Inst{seq, seq[:10]})
	bits := codedBits(t, c, seq)
	if perInst := float64(bits) / float64(len(seq)); perInst > 6 {
		t.Errorf("repetitive code coded at %.1f bits/inst; matches not working", perInst)
	}
}

func TestRoundTripRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		insts := isa.RandInsts(seed, 80)
		var seq []isa.Inst
		for _, in := range insts {
			if in.Format != isa.FormatIllegal {
				seq = append(seq, in)
			}
		}
		c := Train(wordSeqs([][]isa.Inst{seq}))
		var w huffman.BitWriter
		if err := c.Compress(&w, wordsOf(seq)); err != nil {
			return false
		}
		var got []isa.Inst
		if _, err := c.Decompress(w.Bytes(), 0, func(in isa.Inst) error {
			got = append(got, in)
			return nil
		}); err != nil {
			return false
		}
		if len(got) != len(seq) {
			return false
		}
		for i := range seq {
			if isa.Encode(got[i]) != isa.Encode(seq[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyRegion(t *testing.T) {
	roundTrip(t, [][]isa.Inst{{}})
}

// TestComparisonWithSplitStream contrasts the two coders on real benchmark
// code: split streams exploit field-level redundancy that word-level LZ
// cannot, so it should win on compiled code (the paper's reason for
// choosing it), while LZ decodes fewer codewords.
func TestComparisonWithSplitStream(t *testing.T) {
	spec, _ := mediabench.SpecByName("adpcm")
	obj, err := asm.Assemble(spec.Generate())
	if err != nil {
		t.Fatal(err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		t.Fatal(err)
	}
	seq := make([]isa.Inst, 0, 4000)
	for _, w := range im.Text[:4000] {
		in := isa.Decode(w)
		if in.Format != isa.FormatIllegal {
			seq = append(seq, in)
		}
	}
	seqs := [][]isa.Inst{seq}

	lz := Train(wordSeqs(seqs))
	ss := streamcomp.Train(wordSeqs(seqs), streamcomp.Options{})
	lzBits, lzTables := codedBits(t, lz, seq), tableBytes(t, lz)
	ssBits, ssTables := codedBits(t, ss, seq), tableBytes(t, ss)
	lzTotal := lzBits/8 + lzTables
	ssTotal := ssBits/8 + ssTables
	t.Logf("split-stream: %d bits + %d table bytes = %d B (γ=%.3f)",
		ssBits, ssTables, ssTotal, float64(ssTotal)/float64(4*len(seq)))
	t.Logf("lz dictionary: %d bits + %d table bytes = %d B (γ=%.3f)",
		lzBits, lzTables, lzTotal, float64(lzTotal)/float64(4*len(seq)))
	if ssTotal >= 4*len(seq) || lzTotal >= 4*len(seq) {
		t.Error("a coder failed to compress at all")
	}
}

func TestDecompressRejectsCorruption(t *testing.T) {
	var seq []isa.Inst
	for _, in := range isa.RandInsts(7, 200) {
		if in.Format != isa.FormatIllegal {
			seq = append(seq, in)
		}
	}
	c := Train(wordSeqs([][]isa.Inst{seq}))
	var w huffman.BitWriter
	if err := c.Compress(&w, wordsOf(seq)); err != nil {
		t.Fatal(err)
	}
	blob := w.Bytes()
	for i := 0; i < len(blob); i += 3 {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x5A
		n := 0
		c.Decompress(bad, 0, func(isa.Inst) error {
			n++
			if n > 20*len(seq) {
				t.Fatal("runaway decode on corrupted stream")
			}
			return nil
		})
	}
}

// TestNonCanonicalWordsRefused: a word that is not the encoding of its own
// decoding (an operate word with sbz[15:13] set, an illegal opcode) never
// reaches a caller of DecompressWords, which writes words straight into
// the runtime buffer. The decoder refuses such a word in a raw token,
// UnmarshalBinary refuses it in the dictionary, and Compress refuses it
// in a region.
func TestNonCanonicalWordsRefused(t *testing.T) {
	good := isa.Encode(isa.OpR(isa.OpIntA, isa.RegT0, isa.RegT0+1, isa.FnADD, isa.RegT0+2))
	seq := []uint32{good, good, good, isa.Encode(isa.Mem(isa.OpLDW, isa.RegT0, isa.RegSP, 4)), good}
	c := Train([][]uint32{seq})
	for _, bad := range []uint32{good | 1<<13, good | 7<<13, 0x01 << 26, 0x3F<<26 | 5} {
		if isa.Canonical(bad) {
			t.Fatalf("%#08x: test word is canonical", bad)
		}
		var w huffman.BitWriter
		if err := c.Compress(&w, []uint32{good, bad}); err == nil {
			t.Errorf("%#08x: Compress accepted a non-canonical word", bad)
		}

		w = huffman.BitWriter{}
		for _, k := range []uint32{kindRaw, kindEnd} {
			if err := c.kindCode.Encode(&w, k); err != nil {
				t.Fatal(err)
			}
			if k == kindRaw {
				w.WriteBits(uint64(bad), 32)
			}
		}
		var got []uint32
		_, err := c.DecompressWords(w.Bytes(), 0, func(x uint32) error {
			got = append(got, x)
			return nil
		})
		if err == nil || len(got) != 0 {
			t.Errorf("%#08x: raw token decoded to %#x, err %v", bad, got, err)
		}

		d := Compressor{dict: []uint32{bad}, kindCode: c.kindCode, dictCode: c.dictCode, distCode: c.distCode, lenCode: c.lenCode}
		tables, err := d.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := new(Compressor).UnmarshalBinary(tables); err == nil {
			t.Errorf("%#08x: dictionary word loaded", bad)
		}
	}
}
