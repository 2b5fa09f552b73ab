package regions

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/mediabench"
)

// TestPartitionPropertiesOnRealProgram checks the §4 invariants against a
// full generated benchmark under randomized cold sets and buffer bounds:
// every region respects K, regions never overlap, every compressed block is
// cold, and every region has at least one entry unless it is unreachable.
func TestPartitionPropertiesOnRealProgram(t *testing.T) {
	spec, ok := mediabench.SpecByName("g721_dec")
	if !ok {
		t.Fatal("spec missing")
	}
	obj, err := asm.Assemble(spec.Generate())
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(obj, "main")
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		cold := map[string]bool{}
		frac := 0.2 + 0.7*rng.Float64()
		for _, f := range p.Funcs {
			// Cold at function granularity plus random extra blocks, a
			// rough stand-in for arbitrary profiles.
			fnCold := rng.Float64() < frac
			for _, b := range f.Blocks {
				if fnCold || rng.Float64() < 0.15 {
					cold[b.Label] = true
				}
			}
		}
		conf := DefaultConfig()
		conf.K = []int{128, 256, 512, 2048}[rng.Intn(4)]
		conf.Pack = rng.Intn(2) == 0

		res, x, err := Partition(p, cold, conf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		maxWords := conf.K / isa.WordSize
		seen := map[string]int{}
		for _, r := range res.Regions {
			if w := BufferWords(x, r, nil); w > maxWords {
				t.Fatalf("trial %d: region %d needs %d words > %d", trial, r.ID, w, maxWords)
			}
			for k, b := range r.Blocks {
				if x.Blocks[r.Members[k]] != b {
					t.Fatalf("trial %d: region %d member %d is not block %s", trial, r.ID, k, b.Label)
				}
				if prev, dup := seen[b.Label]; dup {
					t.Fatalf("trial %d: block %s in regions %d and %d", trial, b.Label, prev, r.ID)
				}
				seen[b.Label] = r.ID
				if !cold[b.Label] {
					t.Fatalf("trial %d: warm block %s compressed", trial, b.Label)
				}
				if id, _ := inRegion(res, x, b.Label); id != r.ID {
					t.Fatalf("trial %d: RegionOf inconsistent for %s", trial, b.Label)
				}
			}
		}
		for i, id := range res.RegionOf {
			if label := x.Blocks[i].Label; id >= 0 && seen[label] != int(id) {
				t.Fatalf("trial %d: RegionOf lists %s in %d but region slices disagree", trial, label, id)
			}
		}
		// CompressibleInsts equals the instructions inside regions.
		sum := 0
		for _, r := range res.Regions {
			sum += r.NumInsts()
		}
		if sum != res.CompressibleInsts {
			t.Fatalf("trial %d: CompressibleInsts %d != %d", trial, res.CompressibleInsts, sum)
		}
	}
}

// TestPackingNeverIncreasesRegionCount: the packed partition of the same
// inputs has at most as many regions and identical block coverage.
func TestPackingNeverIncreasesRegionCount(t *testing.T) {
	spec, _ := mediabench.SpecByName("adpcm")
	obj, err := asm.Assemble(spec.Generate())
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(obj, "main")
	if err != nil {
		t.Fatal(err)
	}
	cold := map[string]bool{}
	for _, f := range p.Funcs {
		if f.Name != "main" {
			for _, b := range f.Blocks {
				cold[b.Label] = true
			}
		}
	}
	unpacked := DefaultConfig()
	unpacked.Pack = false
	ru, _, err := Partition(p, cold, unpacked)
	if err != nil {
		t.Fatal(err)
	}
	rp, _, err := Partition(p, cold, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.Regions) > len(ru.Regions) {
		t.Fatalf("packing increased regions: %d -> %d", len(ru.Regions), len(rp.Regions))
	}
	if rp.CompressibleInsts != ru.CompressibleInsts {
		t.Fatalf("packing changed coverage: %d vs %d", rp.CompressibleInsts, ru.CompressibleInsts)
	}
}

// TestLoopAwareStrategyKeepsLoopsTogether: with the loop-aware strategy, a
// compressible loop that fits the buffer lands in exactly one region.
func TestLoopAwareStrategyKeepsLoopsTogether(t *testing.T) {
	src := `
        .text
        .func main
        lda  sp, -16(sp)
        stw  ra, 0(sp)
        bsr  ra, coldloop
        ldw  ra, 0(sp)
        lda  sp, 16(sp)
        clr  a0
        sys  halt
        .func coldloop
        li   t0, 8
        li   t2, 1
cl_hdr: add  t2, 3, t2
        xor  t2, 5, t3
        and  t3, 255, t2
        sub  t2, 1, t3
        add  t3, t2, t2
        sll  t2, 1, t3
        srl  t3, 1, t2
cl_mid: xor  t2, 9, t2
        add  t2, 1, t2
        sub  t0, 1, t0
        bgt  t0, cl_hdr
        mov  t2, v0
        ret
`
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(obj, "main")
	if err != nil {
		t.Fatal(err)
	}
	cold := map[string]bool{}
	for _, f := range p.Funcs {
		if f.Name == "coldloop" {
			for _, b := range f.Blocks {
				cold[b.Label] = true
			}
		}
	}
	conf := DefaultConfig()
	conf.Strategy = StrategyLoopAware
	conf.Pack = false
	res, x, err := Partition(p, cold, conf)
	if err != nil {
		t.Fatal(err)
	}
	hdr, okH := inRegion(res, x, "cl_hdr")
	mid, okM := inRegion(res, x, "cl_mid")
	if !okH || !okM || hdr != mid {
		t.Fatalf("loop split: cl_hdr in %d (%v), cl_mid in %d (%v)", hdr, okH, mid, okM)
	}
}

// randomRegions lifts one function of nb blocks with random instruction
// counts, most falling through to the next, and cuts its blocks into
// regions: runs of consecutive blocks, some with their members shuffled,
// numbered in random order. Consecutive runs knit when the first ends in a
// fallthrough. A third of the programs have blocks of 10–12 instructions
// and one-block regions, so that few regions share a tight bin.
func randomRegions(t *testing.T, rng *rand.Rand, nb int) (*Result, *blockIndex) {
	t.Helper()
	nop := cfg.Inst{Word: isa.Encode(isa.Nop())}
	f := &cfg.Func{Name: "f"}
	even := rng.Intn(3) == 0
	for i := 0; i < nb; i++ {
		size := 1 + rng.Intn(20)
		if even {
			size = 10 + rng.Intn(3)
		}
		b := &cfg.Block{Label: fmt.Sprintf("f$%d", i), Insts: make([]cfg.Inst, size)}
		if i == 0 {
			b.Label = "f"
		}
		for k := range b.Insts {
			b.Insts[k] = nop
		}
		f.Blocks = append(f.Blocks, b)
	}
	for i, b := range f.Blocks[:nb-1] {
		if rng.Intn(4) != 0 {
			b.FallsTo = f.Blocks[i+1].Label
		}
	}
	x, err := cfg.NewIndex(&cfg.Program{Funcs: []*cfg.Func{f}, Entry: "f"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var runs [][]int32
	for i := 0; i < nb; {
		n := min(1+rng.Intn(4), nb-i)
		if even {
			n = 1
		}
		run := make([]int32, n)
		for k := range run {
			run[k] = int32(i + k)
		}
		if rng.Intn(5) == 0 {
			rng.Shuffle(n, func(a, b int) { run[a], run[b] = run[b], run[a] })
		}
		runs = append(runs, run)
		i += n
	}
	res := &Result{RegionOf: make([]int32, nb)}
	for id, k := range rng.Perm(len(runs)) {
		r := &Region{ID: id, Members: runs[k]}
		for _, i := range r.Members {
			r.Blocks = append(r.Blocks, x.Blocks[i])
			res.RegionOf[i] = int32(id)
		}
		res.Regions = append(res.Regions, r)
	}
	return res, newBlockIndex(x)
}

// TestFirstFitMatchesLinearScan: the min-tree first fit packs random
// regions, with random sizes and knits, into the bins the linear scan
// picks, under buffer bounds from the largest region's size up. Some
// trials open more bins than the tree's first 64 leaves.
func TestFirstFitMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	mostBins := 0
	for trial := 0; trial < 300; trial++ {
		res, bx := randomRegions(t, rng, 2+rng.Intn(600))
		largest := 0
		for _, r := range res.Regions {
			largest = max(largest, bx.bufferWords(r.Members))
		}
		maxWords := largest + rng.Intn(3*largest)

		clone := func() *Result {
			c := &Result{RegionOf: append([]int32(nil), res.RegionOf...)}
			for _, r := range res.Regions {
				c.Regions = append(c.Regions, &Region{ID: r.ID,
					Blocks: append([]*cfg.Block(nil), r.Blocks...), Members: append([]int32(nil), r.Members...)})
			}
			return c
		}
		got, want := newPacker(clone(), bx, maxWords), newPacker(clone(), bx, maxWords)
		got.firstFitDecreasing()
		refFirstFitDecreasing(want)
		if !reflect.DeepEqual(got.regionOf, want.regionOf) || !reflect.DeepEqual(got.words, want.words) {
			t.Fatalf("trial %d (K=%d words): packing differs from the linear scan:\n got %v\nwant %v",
				trial, maxWords, got.regionOf, want.regionOf)
		}
		bins := 0
		for id := range got.regions {
			if g, w := got.regions[id], want.regions[id]; (g == nil) != (w == nil) || g != nil && !reflect.DeepEqual(g.Members, w.Members) {
				t.Fatalf("trial %d: region %d differs from the linear scan", trial, id)
			}
			if got.regions[id] != nil {
				bins++
			}
		}
		mostBins = max(mostBins, bins)
	}
	if mostBins <= 128 {
		t.Errorf("at most %d bins in a trial; want some past 128, so the tree grows twice", mostBins)
	}
}
