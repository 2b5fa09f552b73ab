package streamcomp

import (
	"bytes"
	"fmt"
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
