package streamcomp_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/huffman"
	"repro/internal/race"
	"repro/internal/streamcomp"
)

// pgpRegions returns the region sequences core.Squash compresses for pgp at
// θ = 5e-5, recovered by decompressing the squashed image, together with
// the blob they encode to.
func pgpRegions(tb testing.TB) ([][]uint32, []byte) {
	tb.Helper()
	bench, _, err := experiments.PrepareSpec("pgp", 1, "")
	if err != nil {
		tb.Fatal(err)
	}
	conf := core.DefaultConfig()
	conf.Theta = 5e-5
	conf.Workers = 1
	out, err := core.Squash(bench.SqObj, bench.Profile, conf)
	if err != nil {
		tb.Fatal(err)
	}
	var comp streamcomp.Compressor
	if err := comp.UnmarshalBinary(out.Meta.Tables); err != nil {
		tb.Fatal(err)
	}
	seqs := make([][]uint32, len(out.Meta.OffsetTable))
	for i, off := range out.Meta.OffsetTable {
		if _, err := comp.DecompressWords(out.Meta.Blob, int(off), func(w uint32) error {
			seqs[i] = append(seqs[i], w)
			return nil
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return seqs, out.Meta.Blob
}

// BenchmarkTrainEncode is the squash pipeline's coder.train and
// region.encode stages on pgp's regions: both passes of the paper's
// two-pass split-stream coder, serial as in the squash benchmark. The
// regions encode in turn into one writer presized from SizeHint, which
// yields the blob core lays out from per-region writers.
func BenchmarkTrainEncode(b *testing.B) {
	seqs, want := pgpRegions(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := streamcomp.Train(seqs, streamcomp.Options{Workers: 1})
		size := 0
		for _, seq := range seqs {
			size += c.SizeHint(len(seq))
		}
		w := huffman.GetWriter(size)
		for _, seq := range seqs {
			if err := c.Compress(w, seq); err != nil {
				b.Fatal(err)
			}
		}
		if i == 0 && !bytes.Equal(w.Bytes(), want) {
			b.Fatal("re-encoded regions differ from the squashed image's blob")
		}
		huffman.PutWriter(w)
	}
}

// TestTrainAllocGate gates the first pass of the coder on pgp's regions at
// θ = 5e-5, serial: the pooled count tables, the index-heap Huffman builder
// (one node array per code instead of one node per value) and decode
// tables left to the first decode keep Train under 200 allocations (116
// measured; 3 654 when BuildSorted allocated one tree node per value and
// per merge and Train built every decode table).
func TestTrainAllocGate(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	seqs, _ := pgpRegions(t)
	allocs := testing.AllocsPerRun(10, func() {
		streamcomp.Train(seqs, streamcomp.Options{Workers: 1})
	})
	t.Logf("Train on pgp: %v allocs/op", allocs)
	if allocs > 200 {
		t.Errorf("Train on pgp: %v allocs/op, ceiling 200", allocs)
	}
}
