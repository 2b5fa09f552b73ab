package lzcomp

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/huffman"
	"repro/internal/isa"
	"repro/internal/race"
)

// lzTestSeqs builds a mixed corpus: repetitive stretches (matches), a small
// recurring alphabet (dictionary hits), and odd one-off words (raw escapes).
func lzTestSeqs() [][]isa.Inst {
	base := []isa.Inst{
		isa.Mem(isa.OpLDW, 1, isa.RegSP, 8),
		isa.OpR(isa.OpIntA, 1, 2, isa.FnADD, 3),
		isa.Mem(isa.OpSTW, 3, isa.RegSP, 8),
	}
	var rep []isa.Inst
	for i := 0; i < 120; i++ {
		rep = append(rep, base...)
	}
	var mixed []isa.Inst
	for i := 0; i < 200; i++ {
		mixed = append(mixed, base[i%len(base)])
		if i%7 == 0 {
			mixed = append(mixed, isa.OpL(isa.OpIntA, uint32(i%32), uint32(i%256), isa.FnSUB, 5))
		}
	}
	return [][]isa.Inst{rep, mixed, {}, base}
}

// TestPoolingOnOffByteIdentical: with drained pools (fresh readers and
// scratch, as before pooling) and with pools warmed and dirtied by a
// different, larger corpus, Compress emits the identical blob and offsets
// and Decompress yields the identical instructions. The pooled per-region
// writers are core's, and TestRegionEncodeMatchesSequential covers them.
func TestPoolingOnOffByteIdentical(t *testing.T) {
	seqs := lzTestSeqs()
	c := Train(wordSeqs(seqs))

	cycle := func(c *Compressor, seqs [][]isa.Inst) ([]byte, []uint32, [][]isa.Inst) {
		blob, offsets := compressSeqs(t, c, seqs)
		dec := make([][]isa.Inst, len(seqs))
		for i := range seqs {
			if _, err := c.Decompress(blob, int(offsets[i]), func(in isa.Inst) error {
				dec[i] = append(dec[i], in)
				return nil
			}); err != nil {
				t.Fatalf("Decompress region %d: %v", i, err)
			}
		}
		return blob, offsets, dec
	}

	runtime.GC() // two cycles empty every sync.Pool, victim cache included
	runtime.GC()
	wantBlob, wantOffs, wantDec := cycle(c, seqs)

	// The polluter doubles every region and adds one more, so the pools end
	// up holding larger, dirtier buffers than the measured corpus needs.
	var polluter [][]isa.Inst
	for _, seq := range lzTestSeqs() {
		polluter = append(polluter, append(append([]isa.Inst(nil), seq...), seq...))
	}
	polluter = append(polluter, polluter[1])
	cycle(Train(wordSeqs(polluter)), polluter)
	for n := 0; n < 3; n++ {
		blob, offs, dec := cycle(c, seqs)
		if !bytes.Equal(blob, wantBlob) {
			t.Fatalf("cycle %d: polluted-pool blob differs from drained-pool blob", n)
		}
		for i := range offs {
			if offs[i] != wantOffs[i] {
				t.Fatalf("cycle %d: offset %d = %d, want %d", n, i, offs[i], wantOffs[i])
			}
		}
		for i := range dec {
			if len(dec[i]) != len(wantDec[i]) {
				t.Fatalf("cycle %d region %d: %d insts, want %d", n, i, len(dec[i]), len(wantDec[i]))
			}
			for k := range dec[i] {
				if dec[i][k] != wantDec[i][k] {
					t.Fatalf("cycle %d region %d inst %d differs", n, i, k)
				}
			}
		}
	}
}

// Sinks for the fresh variant: storing the reader and window in package
// variables makes them escape to the heap, as the ones handed out before
// pooling did, so escape analysis cannot under-count the fresh side.
var (
	freshReader  *huffman.BitReader
	freshScratch *decScratch
)

// TestLZTokenDecodeAllocGate gates LZ token decode: one op decompresses a
// full trained region (dictionary hits, matches and raw escapes). Recycling
// the reader and the back-reference window must keep it at most 1
// alloc/op, and allocating both per op, the pre-pool behaviour, must cost
// at least 5 times as much (0 vs 10 measured).
func TestLZTokenDecodeAllocGate(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	seqs := lzTestSeqs()
	c := Train(wordSeqs(seqs))
	var w huffman.BitWriter
	if err := c.Compress(&w, wordsOf(seqs[1])); err != nil {
		t.Fatal(err)
	}
	blob := w.Bytes()
	emit := func(uint32) error { return nil }
	pooled := testing.AllocsPerRun(200, func() {
		if _, err := c.DecompressWords(blob, 0, emit); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(200, func() {
		r, sc := huffman.NewBitReader(blob), new(decScratch)
		if _, err := c.decompress(r, sc, 0, emit); err != nil {
			t.Fatal(err)
		}
		freshReader, freshScratch = r, sc
	})
	t.Logf("allocs/op: pooled %v, fresh %v", pooled, fresh)
	if pooled > 1 {
		t.Errorf("pooled LZ decode: %v allocs/op, ceiling 1", pooled)
	}
	if fresh < 5*pooled {
		t.Errorf("fresh LZ decode: %v allocs/op, under 5x pooled %v: pooling stopped paying off", fresh, pooled)
	}
}
