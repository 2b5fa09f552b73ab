package streamcomp

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/huffman"
	"repro/internal/isa"
	"repro/internal/parallel"
)

// regionSeq builds a K-byte region's worth of valid instruction words.
func regionSeq(kBytes int) []uint32 {
	want := kBytes / isa.WordSize
	var seq []uint32
	for seed := int64(0); len(seq) < want; seed++ {
		for _, in := range isa.RandInsts(seed, 2*want) {
			if in.Format != isa.FormatIllegal {
				seq = append(seq, isa.Encode(in))
				if len(seq) == want {
					break
				}
			}
		}
	}
	return seq
}

// encodeRange encodes seq's codewords (no sentinel) into w — the inner loop
// of Compress, reused by the chunked prototype below.
func encodeRange(c *Compressor, w *huffman.BitWriter, seq []uint32) error {
	for _, word := range seq {
		for _, fv := range isa.Fields(isa.Decode(word)) {
			if err := c.codes[fv.Kind].Encode(w, fv.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// chunkedCompress is the per-stream-fan-out candidate the ROADMAP asks
// about: split one region's instruction sequence into chunks, encode each
// into a private BitWriter on its own worker, and merge in order (the codes
// are static, so chunk bits are position-independent; MTF would forbid
// this). The merge is a serial unaligned bit append, so the achievable
// speedup is bounded by the encode/merge cost ratio.
func chunkedCompress(c *Compressor, seq []uint32, chunks int) (*huffman.BitWriter, error) {
	per := (len(seq) + chunks - 1) / chunks
	parts, err := parallel.Map(chunks, chunks, func(i int) (*huffman.BitWriter, error) {
		lo := i * per
		hi := lo + per
		if lo > len(seq) {
			lo = len(seq)
		}
		if hi > len(seq) {
			hi = len(seq)
		}
		var w huffman.BitWriter
		return &w, encodeRange(c, &w, seq[lo:hi])
	})
	if err != nil {
		return nil, err
	}
	var out huffman.BitWriter
	for _, p := range parts {
		out.Append(p)
	}
	if err := encodeRange(c, &out, []uint32{isa.Sentinel}); err != nil {
		return nil, err
	}
	return &out, nil
}

// BenchmarkPerStreamEncode settles the ROADMAP question of intra-region
// encode parallelism: serial Compress versus the chunked fan-out, at region
// sizes K ∈ {512, 2048, 8192} bytes. The chunked output is asserted
// bit-identical to the serial one before timing, so the comparison measures
// only cost. See EXPERIMENTS.md for the recorded verdict.
func BenchmarkPerStreamEncode(b *testing.B) {
	for _, kBytes := range []int{512, 2048, 8192} {
		seq := regionSeq(kBytes)
		c := Train([][]uint32{seq}, Options{})
		for _, code := range c.codes {
			code.Prime()
		}
		var ref huffman.BitWriter
		if err := c.Compress(&ref, seq); err != nil {
			b.Fatal(err)
		}
		const chunks = 4
		got, err := chunkedCompress(c, seq, chunks)
		if err != nil {
			b.Fatal(err)
		}
		if got.Len() != ref.Len() || !bytes.Equal(got.Bytes(), ref.Bytes()) {
			b.Fatalf("K=%d: chunked encode is not bit-identical to serial", kBytes)
		}
		b.Run(fmt.Sprintf("K=%d/serial", kBytes), func(b *testing.B) {
			b.SetBytes(int64(isa.WordSize * len(seq)))
			for i := 0; i < b.N; i++ {
				var w huffman.BitWriter
				if err := c.Compress(&w, seq); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("K=%d/chunked", kBytes), func(b *testing.B) {
			b.SetBytes(int64(isa.WordSize * len(seq)))
			for i := 0; i < b.N; i++ {
				if _, err := chunkedCompress(c, seq, chunks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
