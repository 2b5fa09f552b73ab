package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/huffman"
	"repro/internal/isa"
	"repro/internal/lzcomp"
	"repro/internal/objfile"
	"repro/internal/regions"
	"repro/internal/streamcomp"
)

// TestLayoutMatchesBufferWords: the encoder's exact layout and the
// partitioner's BufferWords bound must agree when computed with the same
// buffer-safety assumptions, since the partitioner enforces the K bound
// with BufferWords and the encoder fails if its layout exceeds it.
func TestLayoutMatchesBufferWords(t *testing.T) {
	obj, _, counts := prepare(t, testProgram, profInput)
	conf := DefaultConfig()
	conf.Theta = 1.0
	conf.Regions.K = 96
	conf.BufferSafe = false // align the two computations exactly
	out, err := Squash(obj, counts, conf)
	if err != nil {
		t.Fatal(err)
	}
	// Decode every region and verify it fits the bound (the decompressor
	// enforces it at run time too; this checks the static layout).
	comp, err := out.Meta.Compressor()
	if err != nil {
		t.Fatal(err)
	}
	maxWords := conf.Regions.K / isa.WordSize
	for id, off := range out.Meta.OffsetTable {
		pos := 1
		if _, err := comp.Decompress(out.Meta.Blob, int(off), func(in isa.Inst) error {
			if in.Op == isa.OpBSRX || in.Op == isa.OpJSRX {
				pos += 2
			} else {
				pos++
			}
			return nil
		}); err != nil {
			t.Fatalf("region %d: %v", id, err)
		}
		if pos > maxWords {
			t.Errorf("region %d occupies %d words, bound %d", id, pos, maxWords)
		}
	}
}

// TestEntryTagsNameBlockStarts: every entry stub's tag offset must be a
// block start in its region's layout.
func TestEntryTagsNameBlockStarts(t *testing.T) {
	obj, _, counts := prepare(t, testProgram, profInput)
	conf := DefaultConfig()
	conf.Theta = 1.0
	conf.Regions.K = 96
	out, err := Squash(obj, counts, conf)
	if err != nil {
		t.Fatal(err)
	}
	// Tags live in the words after each `bsr AT, decomp` in text.
	decomp := out.Meta.DecompAddr
	for i, w := range out.Image.Text {
		in := isa.Decode(w)
		if in.Format != isa.FormatBranch || in.Op != isa.OpBSR || in.RA != isa.RegAT {
			continue
		}
		pc := 0x1000 + uint32(i*4)
		target := pc + 4 + uint32(in.Disp)*4
		if target < decomp || target >= decomp+NumEntryRegs*4 {
			continue // not a decompressor call
		}
		tag := out.Image.Text[i+1]
		region := int(tag >> 16)
		offset := int(tag & 0xFFFF)
		if region >= len(out.RegionLayouts) {
			t.Fatalf("tag at %#x names region %d of %d", pc, region, len(out.RegionLayouts))
		}
		found := false
		for _, off := range out.RegionLayouts[region] {
			if off == offset {
				found = true
			}
		}
		if !found {
			t.Errorf("tag at %#x: offset %d is not a block start of region %d", pc, offset, region)
		}
	}
}

// TestNoCompressedLabelSurvives: after squashing, no surviving text symbol
// may carry the name of a compressed block (they were removed; only their
// stubs remain under stub$ names).
func TestNoCompressedLabelSurvives(t *testing.T) {
	obj, _, counts := prepare(t, testProgram, profInput)
	conf := DefaultConfig()
	conf.Theta = 1.0
	out, err := Squash(obj, counts, conf)
	if err != nil {
		t.Fatal(err)
	}
	compressedish := 0
	for _, s := range out.Image.Symbols {
		if strings.HasPrefix(s.Name, "stub$") {
			compressedish++
		}
	}
	if compressedish == 0 {
		t.Fatal("no entry stubs in symbol table")
	}
	// Every stub$X must NOT coexist with a surviving X.
	names := map[string]bool{}
	for _, s := range out.Image.Symbols {
		names[s.Name] = true
	}
	for n := range names {
		if strings.HasPrefix(n, "stub$") && names[strings.TrimPrefix(n, "stub$")] {
			t.Errorf("compressed block %q still present alongside its stub", strings.TrimPrefix(n, "stub$"))
		}
	}
}

// TestConfigInteractions: illegal/degenerate configurations are handled.
func TestConfigInteractions(t *testing.T) {
	obj, _, counts := prepare(t, testProgram, profInput)
	// Stub capacity defaulting.
	conf := DefaultConfig()
	conf.StubCapacity = 0
	if _, err := Squash(obj, counts, conf); err != nil {
		t.Fatalf("zero stub capacity not defaulted: %v", err)
	}
	// Tiny K: single blocks may not fit; Squash must still succeed with
	// whatever is compressible (possibly nothing).
	conf = DefaultConfig()
	conf.Regions.K = 16
	out, err := Squash(obj, counts, conf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.RegionCount > 0 {
		// Fine — just verify the regions respect the bound.
		for id := range out.Meta.OffsetTable {
			for _, off := range out.RegionLayouts[id] {
				if off >= conf.Regions.K/4 {
					t.Errorf("region %d block at offset %d exceeds 4-word buffer", id, off)
				}
			}
		}
	}
	// Interpret + compile-time stubs together.
	conf = DefaultConfig()
	conf.Theta = 1
	conf.Interpret = true
	conf.CompileTimeRestoreStubs = true
	out, err = Squash(obj, counts, conf)
	if err != nil {
		t.Fatal(err)
	}
	baseIm, err := linkObj(obj)
	if err != nil {
		t.Fatal(err)
	}
	base := runBaseline(t, baseIm, timingInput)
	sq, _ := runSquashed(t, out, timingInput)
	if string(sq.Output) != string(base.Output) {
		t.Fatal("interpret+compile-time stubs diverged")
	}
	// Loop-aware + interpret.
	conf = DefaultConfig()
	conf.Theta = 1
	conf.Interpret = true
	conf.Regions.Strategy = regions.StrategyLoopAware
	out, err = Squash(obj, counts, conf)
	if err != nil {
		t.Fatal(err)
	}
	sq, _ = runSquashed(t, out, timingInput)
	if string(sq.Output) != string(base.Output) {
		t.Fatal("interpret+loop-aware diverged")
	}
}

func linkObj(obj *objfile.Object) (*objfile.Image, error) {
	return objfile.Link("main", obj)
}

// legalWords returns the words of n random instructions with the illegal
// ones (which no region holds) left out.
func legalWords(seed int64, n int) []uint32 {
	var out []uint32
	for _, in := range isa.RandInsts(seed, n) {
		if in.Format != isa.FormatIllegal {
			out = append(out, isa.Encode(in))
		}
	}
	return out
}

// TestRegionEncodeMatchesSequential: encodeRegions lays the regions out
// exactly as sequential Compress calls into one writer would, blob and
// offsets alike, under both coders and MTF, at any worker count, with the
// writer pool drained and with it dirtied by a larger corpus.
func TestRegionEncodeMatchesSequential(t *testing.T) {
	var seqs [][]uint32
	for seed := int64(0); seed < 8; seed++ {
		seqs = append(seqs, legalWords(seed, 60*int(seed))) // region 0 is empty
	}
	polluter := [][]uint32{legalWords(100, 3000), legalWords(101, 2000), legalWords(102, 900)}
	for _, coder := range []struct {
		name  string
		train func([][]uint32) RegionCoder
	}{
		{"stream", func(s [][]uint32) RegionCoder { return streamcomp.Train(s, streamcomp.Options{}) }},
		{"stream+mtf", func(s [][]uint32) RegionCoder { return streamcomp.Train(s, streamcomp.Options{MTF: true}) }},
		{"lz", func(s [][]uint32) RegionCoder { return lzcomp.Train(s) }},
	} {
		comp, dirty := coder.train(seqs), coder.train(polluter)
		var ref huffman.BitWriter
		refOff := make([]uint32, len(seqs))
		for i, seq := range seqs {
			refOff[i] = uint32(ref.Len())
			if err := comp.Compress(&ref, seq); err != nil {
				t.Fatal(err)
			}
		}
		want := ref.Bytes()
		for _, workers := range []int{1, 2, 8} {
			for _, pools := range []string{"drained", "dirtied"} {
				if pools == "drained" {
					drainPools()
				} else if _, _, err := encodeRegions(dirty, polluter, workers, nil); err != nil {
					t.Fatal(err)
				}
				blob, offsets, err := encodeRegions(comp, seqs, workers, nil)
				if err != nil {
					t.Fatalf("%s workers=%d %s: %v", coder.name, workers, pools, err)
				}
				if !bytes.Equal(blob, want) || !slices.Equal(offsets, refOff) {
					t.Fatalf("%s workers=%d %s pools: blob or offsets differ from sequential Compress", coder.name, workers, pools)
				}
			}
		}
	}

	// A region the coder refuses fails the encode, naming the lowest such
	// region at any worker count.
	bad := slices.Clone(seqs)
	bad[5] = append(slices.Clone(seqs[5]), isa.Sentinel)
	bad[6] = bad[5]
	comp := streamcomp.Train(seqs, streamcomp.Options{})
	for _, workers := range []int{1, 8} {
		if _, _, err := encodeRegions(comp, bad, workers, nil); err == nil || !strings.HasPrefix(err.Error(), "region 5:") {
			t.Errorf("workers=%d: error %v, want one for region 5", workers, err)
		}
	}
}
