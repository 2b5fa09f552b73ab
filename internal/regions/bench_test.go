package regions

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mediabench"
)

// BenchmarkPartition times region formation on pgp, the largest program
// of the benchmark set, under a fixed seeded cold set, at the paper's
// default buffer and at the top of the Figure 3 sweep (many merges).
func BenchmarkPartition(b *testing.B) {
	spec, ok := mediabench.SpecByName("pgp")
	if !ok {
		b.Fatal("spec missing")
	}
	p := buildSpec(b, spec)
	cold := randomCold(p, rand.New(rand.NewSource(1)))
	for _, k := range []int{512, 4096} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			conf := DefaultConfig()
			conf.K = k
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Partition(p, cold, conf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
