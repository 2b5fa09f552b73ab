package streamcomp

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/huffman"
	"repro/internal/isa"
	"repro/internal/parallel"
)

// sentinelInst is the region terminator as isa.Fields splits it.
var sentinelInst = isa.Inst{Op: isa.OpIllegal, Format: isa.FormatIllegal}

// refTrain is the original Train, kept as the test oracle for the chunked
// word one: it takes decoded instructions, counts every sequence into
// fifteen fresh maps of its own and splits fields with isa.Fields. Train
// over the same instructions' words must build the same codes, MTF
// alphabets and size estimate at any worker count.
func refTrain(seqs [][]isa.Inst, opts Options) *Compressor {
	c := &Compressor{opts: opts}
	if opts.MTF {
		// Per-sequence alphabet collection fans out; the union is a set, so
		// merge order cannot affect the sorted result.
		partial, _ := parallel.Map(len(seqs), opts.Workers,
			func(i int) ([isa.NumStreams]map[uint32]bool, error) {
				var seen [isa.NumStreams]map[uint32]bool
				for k := range seen {
					seen[k] = make(map[uint32]bool)
				}
				collect := func(in isa.Inst) {
					for _, fv := range isa.Fields(in) {
						seen[fv.Kind][fv.Value] = true
					}
				}
				for _, in := range seqs[i] {
					collect(in)
				}
				collect(sentinelInst)
				return seen, nil
			})
		var seen [isa.NumStreams]map[uint32]bool
		for i := range seen {
			seen[i] = make(map[uint32]bool)
		}
		for _, p := range partial {
			for i := range p {
				for v := range p[i] {
					seen[i][v] = true
				}
			}
		}
		for i := range seen {
			vals := make([]uint32, 0, len(seen[i]))
			for v := range seen[i] {
				vals = append(vals, v)
			}
			sortU32(vals)
			c.alphabets[i] = vals
		}
	}

	// Frequency counting is per sequence (each sequence restarts its MTF
	// state), so it fans out too; the merged counts are sums, identical at
	// any worker count.
	partial, _ := parallel.Map(len(seqs), opts.Workers,
		func(i int) ([isa.NumStreams]map[uint32]uint64, error) {
			var f [isa.NumStreams]map[uint32]uint64
			for k := range f {
				f[k] = make(map[uint32]uint64)
			}
			mtf := c.newMTF()
			count := func(in isa.Inst) {
				for _, fv := range isa.Fields(in) {
					v := fv.Value
					if mtf != nil {
						v = mtf[fv.Kind].encode(v)
					}
					f[fv.Kind][v]++
				}
			}
			for _, in := range seqs[i] {
				count(in)
			}
			count(sentinelInst)
			return f, nil
		})
	var freqs [isa.NumStreams]map[uint32]uint64
	for i := range freqs {
		freqs[i] = make(map[uint32]uint64)
	}
	for _, p := range partial {
		for i := range p {
			for v, n := range p[i] {
				freqs[i][v] += n
			}
		}
	}
	var totalBits, totalInsts uint64
	for i := range c.codes {
		c.codes[i] = huffman.Build(freqs[i])
		c.codes[i].Prime()
		for v, n := range freqs[i] {
			totalBits += n * uint64(c.codes[i].CodeLen(v))
		}
	}
	for _, n := range freqs[isa.StreamOpcode] {
		totalInsts += n // every instruction (and sentinel) has an opcode
	}
	if totalInsts > 0 {
		c.estBitsPerInst = int((totalBits + totalInsts - 1) / totalInsts)
	}
	return c
}

// TestTrainMatchesReference compares Train with refTrain on random
// sequences of mixed lengths (empty ones included), with and without MTF,
// across worker counts that split the sequences into different chunks
// (5 at 4 workers and 9 at 8 workers leave fewer chunks than workers).
func TestTrainMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 5, 7, 9, 64} {
		seqs := make([][]isa.Inst, n)
		wseqs := make([][]uint32, n)
		for i := range seqs {
			for _, in := range isa.RandInsts(int64(n*100+i), i%23*5) {
				if in.Format != isa.FormatIllegal {
					seqs[i] = append(seqs[i], in)
					wseqs[i] = append(wseqs[i], isa.Encode(in))
				}
			}
		}
		for _, mtf := range []bool{false, true} {
			want := refTrain(seqs, Options{MTF: mtf, Workers: 1})
			wantTables, err := want.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 4, 8} {
				name := fmt.Sprintf("seqs=%d/mtf=%v/workers=%d", n, mtf, workers)
				got := Train(wseqs, Options{MTF: mtf, Workers: workers})
				gotTables, err := got.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotTables, wantTables) {
					t.Errorf("%s: code tables differ from the reference", name)
				}
				if got.estBitsPerInst != want.estBitsPerInst {
					t.Errorf("%s: estBitsPerInst %d, reference %d", name, got.estBitsPerInst, want.estBitsPerInst)
				}
			}
		}
	}
}

// refCompress is the field-by-field Compress, kept as the oracle for the
// per-format cases: it walks isa.LayoutOf's fields for every word and takes
// each field's MTF step and Code.Encode in turn.
func refCompress(c *Compressor, w *huffman.BitWriter, seq []uint32) error {
	mtf := c.newMTF()
	put := func(k isa.StreamKind, v uint32) error {
		if mtf != nil {
			v = mtf[k].encode(v)
		}
		if err := c.codes[k].Encode(w, v); err != nil {
			return fieldError(k, err)
		}
		return nil
	}
	for _, word := range seq {
		lay := isa.LayoutOf(word)
		if word&^lay.Cover != 0 {
			return fmt.Errorf("streamcomp: word %#08x is not a canonical region instruction", word)
		}
		if err := put(isa.StreamOpcode, word>>26); err != nil {
			return err
		}
		for _, r := range lay.Fields {
			if err := put(r.Kind, word>>r.Shift&(1<<r.Bits-1)); err != nil {
				return err
			}
		}
	}
	return put(isa.StreamOpcode, isa.OpIllegal)
}

// randWord draws a canonical word of a legal format with random fields.
func randWord(rng *rand.Rand) uint32 {
	for {
		w := rng.Uint32()
		if lay := isa.LayoutOf(w); lay.Format != isa.FormatIllegal {
			return w & lay.Cover
		}
	}
}

// skewCodes rebuilds some of c's codes over the values they code, minus a
// few left out so that words holding them meet an absent value. Where a
// code has enough values, the rebuilt one has Fibonacci frequencies, so its
// rarest values get codewords longer than 32 bits.
func skewCodes(rng *rand.Rand, c *Compressor) (long bool) {
	for k, code := range c.codes {
		if rng.Intn(3) == 0 {
			continue
		}
		freq := map[uint32]uint64{}
		a, b := uint64(1), uint64(1)
		for i, j := range rng.Perm(len(code.D)) {
			if i > 0 && rng.Intn(40) == 0 {
				continue // absent from the rebuilt code
			}
			freq[code.D[j]] = 1 + uint64(rng.Intn(50))
			if i < 40 {
				freq[code.D[j]] = a
				a, b = b, a+b
			}
		}
		c.codes[k] = huffman.Build(freq)
		long = long || c.codes[k].MaxLen() > 32
	}
	return long
}

// TestCompressMatchesReference: Compress writes the bits refCompress
// writes, and fails where and as it fails, on random words of every format
// with MTF off and on. The codes leave out some values and code others in
// more than 32 bits; some sequences hold a non-canonical word (an operate
// word with sbz bits set, an illegal opcode, the sentinel). Bits written
// before a failure are compared too.
func TestCompressMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	formats := map[isa.Format]int{}
	var errs, longs int
	for trial := 0; trial < 40; trial++ {
		pool := make([]uint32, 50+rng.Intn(400))
		for i := range pool {
			pool[i] = randWord(rng)
		}
		seqs := make([][]uint32, 60)
		for i := range seqs {
			for n := rng.Intn(80); n > 0; n-- {
				seqs[i] = append(seqs[i], pool[rng.Intn(len(pool))])
			}
		}
		for _, mtf := range []bool{false, true} {
			c := Train(seqs, Options{MTF: mtf, Workers: 1})
			if skewCodes(rng, c) {
				longs++
			}
			for i, seq := range seqs {
				seq = append([]uint32(nil), seq...)
				if len(seq) > 0 && rng.Intn(8) == 0 {
					add := isa.Encode(isa.OpR(isa.OpIntA, 1, 2, isa.FnADD, 3))
					bad := []uint32{add | 1<<13, 0x01 << 26, 0x3E<<26 | 0x1234, isa.Sentinel}
					seq[rng.Intn(len(seq))] = bad[rng.Intn(len(bad))]
				}
				for _, w := range seq {
					formats[isa.FormatOfWord(w)]++
				}
				var got, want huffman.BitWriter
				gotErr, wantErr := c.Compress(&got, seq), refCompress(c, &want, seq)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("trial %d MTF=%v seq %d: Compress error %v, reference %v", trial, mtf, i, gotErr, wantErr)
				}
				if gotErr != nil {
					errs++
				}
				if got.Len() != want.Len() || !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("trial %d MTF=%v seq %d: %d bits differ from the reference's %d", trial, mtf, i, got.Len(), want.Len())
				}
			}
		}
	}
	for f := isa.FormatPal; f <= isa.FormatIllegal; f++ {
		if formats[f] == 0 {
			t.Errorf("no %v word was compressed", f)
		}
	}
	if errs == 0 || longs == 0 {
		t.Errorf("%d failed sequences and %d skewed compressors with codewords past 32 bits; want both", errs, longs)
	}
}
