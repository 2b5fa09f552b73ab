package streamcomp

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/huffman"
	"repro/internal/isa"
	"repro/internal/race"
)

// compressDecompress compresses every region in turn into one writer, then
// decodes each region through Decompress's pooled reader, and returns the
// blob, offsets, and decoded instructions.
func compressDecompress(t *testing.T, c *Compressor, seqs [][]uint32) ([]byte, []uint32, [][]uint32) {
	t.Helper()
	var w huffman.BitWriter
	offsets := make([]uint32, len(seqs))
	for i, seq := range seqs {
		offsets[i] = uint32(w.Len())
		if err := c.Compress(&w, seq); err != nil {
			t.Fatalf("Compress region %d: %v", i, err)
		}
	}
	blob := w.Bytes()
	decoded := make([][]uint32, len(seqs))
	for i := range seqs {
		if _, err := c.DecompressWords(blob, int(offsets[i]), func(w uint32) error {
			decoded[i] = append(decoded[i], w)
			return nil
		}); err != nil {
			t.Fatalf("Decompress region %d: %v", i, err)
		}
	}
	return blob, offsets, decoded
}

// TestPoolingOnOffByteIdentical is the coder-level half of the pooling
// invariant: with drained pools (every reader and count table freshly
// allocated, as before pooling) and with pools warmed and dirtied by a
// different, larger corpus, the compressed blob, the region offsets, and
// the decoded instructions are identical. Runs both the plain and MTF
// variants. The pooled per-region writers are core's, and
// TestRegionEncodeMatchesSequential covers them.
func TestPoolingOnOffByteIdentical(t *testing.T) {
	seqs := [][]uint32{
		realisticSeq(1, 300),
		realisticSeq(2, 7),
		realisticSeq(3, 1200),
		{},
		realisticSeq(4, 64),
	}
	polluter := [][]uint32{realisticSeq(5, 4000), realisticSeq(6, 2500), realisticSeq(7, 900)}
	for _, opts := range []Options{{}, {MTF: true}} {
		c := Train(seqs, opts)

		runtime.GC() // two cycles empty every sync.Pool, victim cache included
		runtime.GC()
		wantBlob, wantOffs, wantDec := compressDecompress(t, c, seqs)

		compressDecompress(t, Train(polluter, opts), polluter)
		for cycle := 0; cycle < 3; cycle++ {
			blob, offs, dec := compressDecompress(t, c, seqs)
			if !bytes.Equal(blob, wantBlob) {
				t.Fatalf("MTF=%v cycle %d: polluted-pool blob differs from drained-pool blob", opts.MTF, cycle)
			}
			for i := range offs {
				if offs[i] != wantOffs[i] {
					t.Fatalf("MTF=%v cycle %d: offset %d = %d, want %d", opts.MTF, cycle, i, offs[i], wantOffs[i])
				}
			}
			for i := range dec {
				if len(dec[i]) != len(wantDec[i]) {
					t.Fatalf("MTF=%v cycle %d region %d: %d insts, want %d", opts.MTF, cycle, i, len(dec[i]), len(wantDec[i]))
				}
				for k := range dec[i] {
					if dec[i][k] != wantDec[i][k] {
						t.Fatalf("MTF=%v cycle %d region %d inst %d differs", opts.MTF, cycle, i, k)
					}
				}
			}
		}
	}
}

// TestSizeHintCoversTypicalRegions: the trained estimate should be tight
// enough that a pooled writer sized by it encodes a typical region without
// growing, which is what makes the warm encode path allocation-free.
func TestSizeHintCoversTypicalRegions(t *testing.T) {
	seqs := [][]uint32{realisticSeq(10, 600), realisticSeq(11, 600)}
	c := Train(seqs, Options{})
	if c.estBitsPerInst <= 0 {
		t.Fatal("Train left estBitsPerInst unset")
	}
	for i, seq := range seqs {
		bits := codedBits(t, c, seq)
		if got := c.SizeHint(len(seq)); got < (bits+7)/8 {
			t.Errorf("region %d: SizeHint(%d) = %d bytes < actual %d", i, len(seq), got, (bits+7)/8)
		}
	}
}

// freshWriter is the fresh variant's sink: storing the writer in a package
// variable makes it escape to the heap, as a writer handed out before
// pooling did, so escape analysis cannot under-count the fresh side.
var freshWriter *huffman.BitWriter

// TestRegionEncodeAllocGate gates the region-encode writer pool: one op
// compresses a ~512-instruction region into a writer sized from the trained
// estimate. The pooled writer must keep the encode at most 1 alloc/op, and
// a fresh writer per op, the pre-pool behaviour, must allocate at least
// twice as much (0 vs 2 measured: the writer and its buffer).
func TestRegionEncodeAllocGate(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	seq := realisticSeq(99, 512)
	c := Train([][]uint32{seq}, Options{})
	pooled := testing.AllocsPerRun(200, func() {
		w := huffman.GetWriter(c.SizeHint(len(seq)))
		if err := c.Compress(w, seq); err != nil {
			t.Fatal(err)
		}
		huffman.PutWriter(w)
	})
	fresh := testing.AllocsPerRun(200, func() {
		w := new(huffman.BitWriter)
		w.Grow(c.SizeHint(len(seq)))
		if err := c.Compress(w, seq); err != nil {
			t.Fatal(err)
		}
		freshWriter = w
	})
	t.Logf("allocs/op: pooled %v, fresh %v", pooled, fresh)
	if pooled > 1 {
		t.Errorf("pooled region encode: %v allocs/op, ceiling 1", pooled)
	}
	if fresh < 2*pooled {
		t.Errorf("fresh region encode: %v allocs/op, under 2x pooled %v: pooling stopped paying off", fresh, pooled)
	}
}

// TestCountTablesSurviveGC: training the squash programs in rotation, with
// collections between the trainings (as a squash's own allocations cause),
// reuses one count table instead of allocating and zeroing half a MiB per
// training, and every training hands the table back clean.
func TestCountTablesSurviveGC(t *testing.T) {
	corpora := [][][]uint32{
		{realisticSeq(1, 3000), realisticSeq(2, 700)},
		{realisticSeq(3, 400)},
		{realisticSeq(4, 1500), realisticSeq(5, 20), realisticSeq(6, 900)},
	}
	Train(corpora[0], Options{Workers: 1}) // warm-up
	want := getStreamCounts()
	putStreamCounts(want)
	for round := 0; round < 6; round++ {
		runtime.GC() // two cycles empty every sync.Pool, victim cache included
		runtime.GC()
		Train(corpora[round%len(corpora)], Options{Workers: 1, MTF: round%2 == 1})
		runtime.GC()
		runtime.GC()
		got := getStreamCounts()
		putStreamCounts(got)
		if got != want {
			t.Fatalf("round %d: training allocated a new count table", round)
		}
		for k := range got.dense {
			for v, c := range got.dense[k] {
				if c != 0 {
					t.Fatalf("round %d: stream %v value %d left at count %d", round, isa.StreamKind(k), v, c)
				}
			}
			for _, w := range got.seen[k] {
				if w != 0 {
					t.Fatalf("round %d: stream %v left values marked", round, isa.StreamKind(k))
				}
			}
			if len(got.sparse[k]) != 0 {
				t.Fatalf("round %d: stream %v left %d sparse counts", round, isa.StreamKind(k), len(got.sparse[k]))
			}
		}
	}
}
