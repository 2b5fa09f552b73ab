package regions_test

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/experiments"
	"repro/internal/profile"
	"repro/internal/race"
	"repro/internal/regions"
	"repro/internal/unswitch"
)

// TestPartitionAllocGate bounds the allocations of one Partition of pgp's
// squeezed, unswitched program at θ = 5e-5 on one worker, the region
// selection the squash benchmark times. Partition numbers the blocks once
// and keeps every per-block fact in slices, so its allocations scale with
// the regions it forms, not with a map entry per block and edge. The
// label-keyed partitioner it replaced made 25 836 allocations here, and
// with a map of links per related region 2 097; with flat link lists it
// makes 1 034 (go1.24). The ceiling, the reading plus ~20%, leaves headroom
// for Go version drift but fails long before per-region or per-block maps
// creep back.
func TestPartitionAllocGate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not representative under the race detector")
	}
	bench, _, err := experiments.PrepareSpec("pgp", 1, "")
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(bench.SqObj, "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachProfile(bench.Profile); err != nil {
		t.Fatal(err)
	}
	const theta = 5e-5
	if _, err := unswitch.Run(p, profile.ColdThreshold(p, theta).IsCold); err != nil {
		t.Fatal(err)
	}
	cold := profile.IdentifyCold(p, theta).Cold
	conf := regions.DefaultConfig()
	conf.Workers = 1
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := regions.Partition(p, cold, conf); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 1250
	t.Logf("Partition allocs/op: %v (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("Partition made %v allocations, ceiling %d", allocs, ceiling)
	}
}
