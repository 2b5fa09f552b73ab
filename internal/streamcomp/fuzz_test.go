package streamcomp

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/huffman"
	"repro/internal/isa"
)

// FuzzStreamDecompress drives the split-stream decoder directly with
// arbitrary code tables and blobs. Tables that UnmarshalBinary refuses are
// skipped; on any tables it accepts, the table-driven and the reference
// (tree-walk) decoders must not panic, must agree on error or success,
// bits consumed and every word emitted, and every word must be canonical
// (isa.Canonical), since the runtime writes decoded words straight into
// its buffer. Emission is capped: a stream read past its end continues
// with zero bits, which can decode as an endless run of instructions.
func FuzzStreamDecompress(f *testing.F) {
	for i, opts := range []Options{{}, {MTF: true}} {
		seqs := [][]uint32{realisticSeq(int64(40+i), 300), realisticSeq(int64(50+i), 40)}
		c := Train(seqs, opts)
		tables, err := c.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		var w huffman.BitWriter
		for _, seq := range seqs {
			if err := c.Compress(&w, seq); err != nil {
				f.Fatal(err)
			}
		}
		blob := w.Bytes()
		f.Add(tables, blob, uint16(0))
		f.Add(tables, blob[len(blob)/2:], uint16(3))
		f.Add(tables, []byte{0xFF, 0x00, 0xAB, 0x5A}, uint16(1))
	}
	f.Fuzz(func(t *testing.T, tables, blob []byte, off uint16) {
		if int(off) > 8*len(blob) {
			return
		}
		run := func(slow bool) (words []uint32, bits int, err error) {
			var c Compressor
			if err := c.UnmarshalBinary(tables); err != nil {
				return nil, 0, errSkip
			}
			c.SetSlowDecode(slow)
			bits, err = c.DecompressWords(blob, int(off), func(w uint32) error {
				if len(words) >= 4096 {
					return fmt.Errorf("emit cap")
				}
				if !isa.Canonical(w) {
					t.Fatalf("slow=%v: emitted non-canonical word %#08x", slow, w)
				}
				words = append(words, w)
				return nil
			})
			return words, bits, err
		}
		fw, fb, ferr := run(false)
		if ferr == errSkip {
			return
		}
		sw, sb, serr := run(true)
		if (ferr == nil) != (serr == nil) {
			t.Fatalf("table decoder error %v, tree decoder error %v", ferr, serr)
		}
		if fb != sb || len(fw) != len(sw) {
			t.Fatalf("table decoder %d bits/%d words, tree decoder %d bits/%d words", fb, len(fw), sb, len(sw))
		}
		for i := range fw {
			if fw[i] != sw[i] {
				t.Fatalf("word %d: table decoder %#08x, tree decoder %#08x", i, fw[i], sw[i])
			}
		}
	})
}

// errSkip marks tables UnmarshalBinary refused.
var errSkip = errors.New("tables refused")
