package regions

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/mediabench"
)

// buildSpec assembles and lifts one generated benchmark.
func buildSpec(tb testing.TB, spec mediabench.Spec) *cfg.Program {
	tb.Helper()
	obj, err := asm.Assemble(spec.Generate())
	if err != nil {
		tb.Fatal(err)
	}
	p, err := cfg.Build(obj, "main")
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// randomCold marks whole functions cold with probability frac, plus random
// extra blocks: a rough stand-in for arbitrary profiles.
func randomCold(p *cfg.Program, rng *rand.Rand) map[string]bool {
	cold := map[string]bool{}
	frac := 0.2 + 0.7*rng.Float64()
	for _, f := range p.Funcs {
		fnCold := rng.Float64() < frac
		for _, b := range f.Blocks {
			if fnCold || rng.Float64() < 0.15 {
				cold[b.Label] = true
			}
		}
	}
	return cold
}

// sameResult reports the first difference between two partitions.
func sameResult(got, want *Result) error {
	if len(got.Regions) != len(want.Regions) {
		return fmt.Errorf("%d regions, want %d", len(got.Regions), len(want.Regions))
	}
	for i, r := range got.Regions {
		w := want.Regions[i]
		if r.ID != w.ID || len(r.Blocks) != len(w.Blocks) {
			return fmt.Errorf("region %d: ID %d with %d blocks, want ID %d with %d", i, r.ID, len(r.Blocks), w.ID, len(w.Blocks))
		}
		for j, b := range r.Blocks {
			if b != w.Blocks[j] {
				return fmt.Errorf("region %d block %d: %s, want %s", i, j, b.Label, w.Blocks[j].Label)
			}
		}
	}
	if len(got.InRegion) != len(want.InRegion) {
		return fmt.Errorf("InRegion has %d labels, want %d", len(got.InRegion), len(want.InRegion))
	}
	for l, id := range want.InRegion {
		if g, ok := got.InRegion[l]; !ok || g != id {
			return fmt.Errorf("InRegion[%s] = %d (%v), want %d", l, g, ok, id)
		}
	}
	if len(got.Excluded) != len(want.Excluded) {
		return fmt.Errorf("Excluded has %d labels, want %d", len(got.Excluded), len(want.Excluded))
	}
	for l, why := range want.Excluded {
		if got.Excluded[l] != why {
			return fmt.Errorf("Excluded[%s] = %q, want %q", l, got.Excluded[l], why)
		}
	}
	if got.ColdInsts != want.ColdInsts || got.CompressibleInsts != want.CompressibleInsts || got.TotalInsts != want.TotalInsts {
		return fmt.Errorf("counts %d/%d/%d, want %d/%d/%d", got.ColdInsts, got.CompressibleInsts, got.TotalInsts,
			want.ColdInsts, want.CompressibleInsts, want.TotalInsts)
	}
	return nil
}

// TestPartitionMatchesReference: the incremental Partition gives the same
// Result and Preds as the reference implementation on every benchmark, under a seeded
// random cold set per benchmark, across the Figure 3 buffer sweep, both
// strategies, and packing on and off.
func TestPartitionMatchesReference(t *testing.T) {
	ks := []int{64, 128, 256, 512, 1024, 2048, 4096}
	for si, spec := range mediabench.Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			p := buildSpec(t, spec)
			cold := randomCold(p, rand.New(rand.NewSource(int64(si))))
			for _, k := range ks {
				for _, strategy := range []Strategy{StrategyDFS, StrategyLoopAware} {
					for _, pack := range []bool{false, true} {
						conf := DefaultConfig()
						conf.K, conf.Strategy, conf.Pack = k, strategy, pack
						name := fmt.Sprintf("K=%d/strategy=%d/pack=%v", k, strategy, pack)
						want, wantPreds, err := refPartition(p, cold, conf)
						if err != nil {
							t.Fatalf("%s: reference: %v", name, err)
						}
						got, gotPreds, err := Partition(p, cold, conf)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if err := sameResult(got, want); err != nil {
							t.Errorf("%s: %v", name, err)
						}
						if !reflect.DeepEqual(gotPreds, wantPreds) {
							t.Errorf("%s: Preds differ from the reference", name)
						}
					}
				}
			}
		})
	}
}

// knitProgram's cold function forms three regions under the loop-aware
// strategy: the loop kn_loop (region 0), the entry block knit (1) and the
// loop exit kn_exit (2). Merging 0 with 1 or with 2 each saves one entry
// stub and one table word; only 0 with 2 also knits kn_loop's fallthrough
// into kn_exit, which breaks the tie that would otherwise go to (0, 1).
const knitProgram = `
        .text
        .func main
        lda  sp, -16(sp)
        stw  ra, 0(sp)
        bsr  ra, knit
        ldw  ra, 0(sp)
        lda  sp, 16(sp)
        clr  a0
        sys  halt
        .func knit
        li   t0, 8
        li   t2, 1
        add  t2, 3, t2
        xor  t2, 5, t3
        and  t3, 255, t2
        sub  t2, 1, t3
kn_loop:
        add  t3, t2, t2
        sll  t2, 1, t3
        srl  t3, 1, t2
        xor  t2, 9, t2
        add  t2, 1, t2
        sub  t0, 1, t0
        bgt  t0, kn_loop
kn_exit:
        mov  t2, v0
        add  v0, 1, v0
        sub  v0, 2, v0
        xor  v0, 3, v0
        and  v0, 255, v0
        ret
`

func TestPackingPrefersKnittedFallthrough(t *testing.T) {
	obj, err := asm.Assemble(knitProgram)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(obj, "main")
	if err != nil {
		t.Fatal(err)
	}
	cold := map[string]bool{}
	for _, b := range p.FuncByName("knit").Blocks {
		cold[b.Label] = true
	}
	conf := DefaultConfig()
	conf.Strategy = StrategyLoopAware
	res, _, err := Partition(p, cold, conf)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := refPartition(p, cold, conf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(res, want); err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, r := range res.Regions {
		for _, b := range r.Blocks {
			order = append(order, b.Label)
		}
	}
	if got := fmt.Sprint(order); got != "[kn_loop kn_exit knit]" {
		t.Fatalf("packed block order %s, want [kn_loop kn_exit knit]", got)
	}
}
