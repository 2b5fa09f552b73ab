package lzcomp

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/huffman"
	"repro/internal/isa"
	"repro/internal/mediabench"
	"repro/internal/objfile"
)

// adpcmSeq extracts a region-sized instruction sequence from real benchmark
// code: the realistic corpus, where raw-word escapes (32-bit reads shared by
// both decoders) dilute the codeword decoding the pair isolates.
func adpcmSeq(b *testing.B) []isa.Inst {
	spec, _ := mediabench.SpecByName("adpcm")
	obj, err := asm.Assemble(spec.Generate())
	if err != nil {
		b.Fatal(err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		b.Fatal(err)
	}
	seq := make([]isa.Inst, 0, 4000)
	for _, w := range im.Text[:4000] {
		in := isa.Decode(w)
		if in.Format != isa.FormatIllegal {
			seq = append(seq, in)
		}
	}
	return seq
}

// dictSeq builds a sequence over a small recurring word alphabet, the shape
// of boilerplate-heavy code: every token is a dictionary literal, so decode
// time is dominated by Huffman codewords and the table/tree ratio measures
// the decoder itself. No consecutive word pair repeats within the match
// window, so the greedy matcher emits no back-references.
func dictSeq(b *testing.B) []isa.Inst {
	alphabet := make([]isa.Inst, 64)
	for i := range alphabet {
		// (RA, RC) = (i mod 32, i / 32) is injective over the 64 entries,
		// so all alphabet words are distinct.
		alphabet[i] = isa.OpR(isa.OpIntA, uint32(i%32), 7, isa.FnADD, uint32(i/32))
	}
	seq := make([]isa.Inst, 3500)
	lastPair := map[[2]int]int{}
	prev := 0
	state := uint32(1)
	for i := range seq {
		state = state*1664525 + 1013904223 // high LCG bits: the low ones cycle
		pick := -1
		for k := 0; k < len(alphabet); k++ {
			cand := (int(state>>26) + k) % len(alphabet)
			if p, seen := lastPair[[2]int{prev, cand}]; !seen || i-p > maxDistance+1 {
				pick = cand
				break
			}
		}
		if pick < 0 {
			b.Fatal("dictSeq: no pair-free symbol available")
		}
		lastPair[[2]int{prev, pick}] = i
		seq[i] = alphabet[pick]
		prev = pick
	}
	return seq
}

// BenchmarkLZDecode measures decoding one region with the table-driven
// Huffman decoder ("table") and the reference bit-at-a-time decoder
// ("tree"). Both consume identical bits; the pair quantifies the fast-decode
// speedup the runtime gets when the fast paths are enabled. Two corpora
// bound the ratio: "adpcm" is real benchmark code (raw-escape-heavy, so the
// shared 32-bit reads compress the ratio), "dictheavy" is codeword-bound.
func BenchmarkLZDecode(b *testing.B) {
	corpora := []struct {
		name string
		seq  []isa.Inst
	}{
		{"adpcm", adpcmSeq(b)},
		{"dictheavy", dictSeq(b)},
	}
	for _, corpus := range corpora {
		seq := corpus.seq
		c := Train(wordSeqs([][]isa.Inst{seq}))
		if corpus.name == "dictheavy" {
			for _, tok := range c.tokenize(wordsOf(seq)) {
				if tok.kind == kindMatch || tok.kind == kindRaw {
					b.Fatalf("dictheavy corpus produced a kind-%d token; ratio no longer isolates codeword decode", tok.kind)
				}
			}
		}
		var w huffman.BitWriter
		if err := c.Compress(&w, wordsOf(seq)); err != nil {
			b.Fatal(err)
		}
		blob := w.Bytes()
		for _, mode := range []struct {
			name string
			slow bool
		}{{"table", false}, {"tree", true}} {
			b.Run(corpus.name+"/"+mode.name, func(b *testing.B) {
				c.SetSlowDecode(mode.slow)
				defer c.SetSlowDecode(false)
				b.SetBytes(int64(4 * len(seq)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n := 0
					if _, err := c.DecompressWords(blob, 0, func(uint32) error {
						n++
						return nil
					}); err != nil {
						b.Fatal(err)
					}
					if n != len(seq) {
						b.Fatalf("decoded %d insts, want %d", n, len(seq))
					}
				}
			})
		}
	}
}
