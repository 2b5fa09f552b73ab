package lzcomp

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/huffman"
	"repro/internal/isa"
)

// decodeAll decompresses one region with the given decoder selection and
// returns the instruction words and bits consumed.
func decodeAll(t *testing.T, c *Compressor, blob []byte, off int, slow bool) ([]uint32, int) {
	t.Helper()
	c.SetSlowDecode(slow)
	defer c.SetSlowDecode(false)
	var words []uint32
	bits, err := c.Decompress(blob, off, func(in isa.Inst) error {
		words = append(words, isa.Encode(in))
		return nil
	})
	if err != nil {
		t.Fatalf("Decompress (slow=%v): %v", slow, err)
	}
	return words, bits
}

// TestFastSlowDecodeEquivalence: the table-driven decoder and the reference
// bit-at-a-time decoder must emit the same instructions and consume the same
// bits on every valid stream — the invariant that lets the runtime's
// fast-path-disabled mode use DecodeTree as the oracle.
func TestFastSlowDecodeEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		insts := isa.RandInsts(seed, 120)
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
		fast, fb := decodeAll(t, c, w.Bytes(), 0, false)
		slow, sb := decodeAll(t, c, w.Bytes(), 0, true)
		if fb != sb || len(fast) != len(slow) {
			return false
		}
		for i := range fast {
			if fast[i] != slow[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSingleSymbolCodes drives the degenerate case where the dict, dist, and
// len codes each hold exactly one symbol: a one-codeword canonical code is
// Kraft-incomplete (its single 1-bit codeword leaves half the code space
// unused), which is precisely the shape where the table-driven decoder must
// fall back to the reference tree walk. Fast and slow decodes must agree.
func TestSingleSymbolCodes(t *testing.T) {
	word := isa.OpR(isa.OpIntA, isa.RegT0, isa.RegT0+1, isa.FnADD, isa.RegT0+2)
	seq := make([]isa.Inst, 20)
	for i := range seq {
		seq[i] = word
	}
	c := Train(wordSeqs([][]isa.Inst{seq}))
	var w huffman.BitWriter
	if err := c.Compress(&w, wordsOf(seq)); err != nil {
		t.Fatal(err)
	}
	fast, fb := decodeAll(t, c, w.Bytes(), 0, false)
	slow, sb := decodeAll(t, c, w.Bytes(), 0, true)
	if fb != sb {
		t.Fatalf("bits consumed: fast %d, slow %d", fb, sb)
	}
	if len(fast) != len(seq) || len(slow) != len(seq) {
		t.Fatalf("decoded %d (fast) / %d (slow) insts, want %d", len(fast), len(slow), len(seq))
	}
	for i := range fast {
		if fast[i] != slow[i] || fast[i] != isa.Encode(word) {
			t.Fatalf("inst %d: fast %#x slow %#x want %#x", i, fast[i], slow[i], isa.Encode(word))
		}
	}
}

// TestMarshalRoundTrip: a deserialized compressor must decode streams the
// original encoded, and every truncation of the table blob must be rejected.
func TestMarshalRoundTrip(t *testing.T) {
	insts := isa.RandInsts(7, 100)
	var seq []isa.Inst
	for _, in := range insts {
		if in.Format != isa.FormatIllegal {
			seq = append(seq, in)
		}
	}
	c := Train(wordSeqs([][]isa.Inst{seq, seq[:17]}))
	blob, offsets := compressSeqs(t, c, [][]isa.Inst{seq, seq[:17]})
	tables, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Compressor
	if err := back.UnmarshalBinary(tables); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	for i, want := range [][]isa.Inst{seq, seq[:17]} {
		got, _ := decodeAll(t, &back, blob, int(offsets[i]), false)
		gotSlow, _ := decodeAll(t, &back, blob, int(offsets[i]), true)
		if len(got) != len(want) {
			t.Fatalf("region %d: deserialized decode emitted %d insts, want %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k] != isa.Encode(want[k]) || gotSlow[k] != isa.Encode(want[k]) {
				t.Fatalf("region %d inst %d differs after round trip", i, k)
			}
		}
	}
	tables2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tables, tables2) {
		t.Fatal("re-marshalled tables differ")
	}
	for n := 0; n < len(tables); n++ {
		if err := new(Compressor).UnmarshalBinary(tables[:n]); err == nil {
			t.Fatalf("truncated tables (%d bytes) accepted", n)
		}
	}
	if err := new(Compressor).UnmarshalBinary(append(append([]byte{}, tables...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// FuzzLZDecompress feeds arbitrary bytes to both decoders: they must never
// panic, must consume identical bits, must agree on error/success and on
// every emitted word, and every word emitted must be canonical. Emission is capped because a truncated
// stream reads past the end as zero bits, which can decode as an unbounded
// run of valid tokens.
func FuzzLZDecompress(f *testing.F) {
	word := isa.OpR(isa.OpIntA, isa.RegT0, isa.RegT0+1, isa.FnADD, isa.RegT0+2)
	seq := []isa.Inst{word, isa.Mem(isa.OpLDW, isa.RegT0, isa.RegSP, 4), word, word}
	c := Train(wordSeqs([][]isa.Inst{seq}))
	var w huffman.BitWriter
	if err := c.Compress(&w, wordsOf(seq)); err != nil {
		f.Fatal(err)
	}
	f.Add(w.Bytes(), 0)
	f.Add([]byte{0xFF, 0x00, 0xAB}, 3)
	f.Fuzz(func(t *testing.T, blob []byte, off int) {
		if off < 0 || off > 8*len(blob) {
			return
		}
		const cap = 4096
		run := func(slow bool) (words []uint32, bits int, err error) {
			c.SetSlowDecode(slow)
			defer c.SetSlowDecode(false)
			bits, err = c.DecompressWords(blob, off, func(w uint32) error {
				if len(words) >= cap {
					return fmt.Errorf("emit cap")
				}
				if !isa.Canonical(w) {
					t.Fatalf("emitted non-canonical word %#08x", w)
				}
				words = append(words, w)
				return nil
			})
			return
		}
		fw, fb, ferr := run(false)
		sw, sb, serr := run(true)
		if (ferr == nil) != (serr == nil) {
			t.Fatalf("fast err %v, slow err %v", ferr, serr)
		}
		if fb != sb || len(fw) != len(sw) {
			t.Fatalf("fast %d bits/%d insts, slow %d bits/%d insts", fb, len(fw), sb, len(sw))
		}
		for i := range fw {
			if fw[i] != sw[i] {
				t.Fatalf("inst %d: fast %#x, slow %#x", i, fw[i], sw[i])
			}
		}
	})
}
