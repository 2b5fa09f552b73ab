package benchhist

// Allocation gates. The zero-alloc work pairs each pooled hot path with a
// "fresh" variant that constructs its objects directly per op, the way the
// code allocated before pooling (BenchmarkBitIOAlloc/{pooled,fresh}, ...). CI runs them with -benchmem and
// this file turns the allocs/op and B/op columns into history entries and
// enforces two properties per pair: the pooled variant stays under an
// absolute allocs/op ceiling (the O(1)-steady-state guarantee), and the
// fresh variant allocates at least MinRatio times as much (the pools keep
// buying something). Both medians are recorded, so the history documents the
// reduction itself, not just pass/fail. A gate without a fresh variant is
// ceiling-only: it records and checks its pooled side alone.

import (
	"fmt"
	"strings"
)

// AllocGate names one pooled/fresh allocation benchmark pair and its bounds.
type AllocGate struct {
	// Name identifies the gate; history entries derive from it
	// (<name>-allocs-pooled, <name>-allocs-fresh, <name>-bytes-pooled,
	// <name>-bytes-fresh).
	Name string
	// Pooled and Fresh are benchmark names as printed by `go test -bench`,
	// without the -GOMAXPROCS suffix. An empty Fresh makes the gate
	// ceiling-only: no fresh entries, no MinRatio check.
	Pooled string
	Fresh  string
	// MaxPooledAllocs is the ceiling on the pooled variant's median
	// allocs/op. Go rounds allocs/op to an integer per run, so a ceiling of
	// 1 tolerates pool warm-up while still failing any per-iteration
	// allocation that sneaks back in.
	MaxPooledAllocs float64
	// MinRatio is the floor on fresh/pooled allocs/op. A pooled median of
	// zero passes trivially (the reduction is complete); the check is
	// formulated as fresh >= MinRatio*pooled to avoid dividing by it.
	MinRatio float64
}

// DefaultAllocGates covers the five pooled hot paths and the CFG lift.
// Measured medians on
// the development machine are noted for scale; ceilings and floors leave
// room for pool warm-up and rounding, not for regressions.
func DefaultAllocGates() []AllocGate {
	return []AllocGate{
		// Pooled bit I/O: encode+decode a ~2 Kbit stream (0 vs 5 allocs/op).
		{Name: "bitio", Pooled: "BenchmarkBitIOAlloc/pooled", Fresh: "BenchmarkBitIOAlloc/fresh",
			MaxPooledAllocs: 1, MinRatio: 4},
		// Split-stream region encode, writer sized from training stats
		// (0 vs 2 allocs/op — the fresh side is just writer + buffer).
		{Name: "region-encode", Pooled: "BenchmarkRegionEncodeAlloc/pooled", Fresh: "BenchmarkRegionEncodeAlloc/fresh",
			MaxPooledAllocs: 1, MinRatio: 2},
		// LZ token decode of a full region (0 vs 10 allocs/op).
		{Name: "lz-token-decode", Pooled: "BenchmarkLZTokenDecodeAlloc/pooled", Fresh: "BenchmarkLZTokenDecodeAlloc/fresh",
			MaxPooledAllocs: 1, MinRatio: 5},
		// Daemon request serialization; the pooled side keeps exactly the
		// one exact-size copy the cache retains (1 vs 3 allocs/op).
		{Name: "request-scratch", Pooled: "BenchmarkRequestScratch/pooled", Fresh: "BenchmarkRequestScratch/fresh",
			MaxPooledAllocs: 2, MinRatio: 2},
		// Frame codec: one warm cache-hit squash exchange, server side
		// (read+decode+respond). Pooled buffers, zero-copy sections, and
		// the pooled envelope decoder run the whole exchange
		// allocation-free (0 allocs/op); the ceiling of 2 leaves room for
		// pool warm-up and rounding only. Ceiling-only: the codec has no
		// unpooled variant to compare against.
		{Name: "frame-codec", Pooled: "BenchmarkFrameCodecAlloc",
			MaxPooledAllocs: 2},
		// CFG lift of the squeezed pgp object: one backing array each for
		// instructions, blocks and functions, so allocations no longer
		// scale with the instruction count (115 allocs/op at GOMAXPROCS=2,
		// 107 at 1 and 117 at 4 and 8; ~21000 before the flat lift). The
		// ceiling of 120 leaves room for rounding and the decode workers
		// only. Ceiling-only: there is no pooled/fresh pair.
		{Name: "cfg-lift", Pooled: "BenchmarkBuild",
			MaxPooledAllocs: 120},
	}
}

// allocMetric describes one recorded metric of a gate.
type allocMetric struct {
	suffix  string
	samples map[string][]float64
	unit    string
}

// AllocEntries turns parsed allocs/op and B/op samples into history entries:
// four per gate (pooled and fresh medians of both metrics; two for a
// ceiling-only gate), as absolute
// value+unit records. Every gated benchmark must be present in the allocs
// samples — a missing one means the alloc bench run silently dropped a
// pooled path, which is itself a regression.
func AllocEntries(allocs, bytes map[string][]float64, gates []AllocGate, commit, date string) ([]Entry, error) {
	var entries []Entry
	for _, g := range gates {
		for _, side := range []struct{ label, bench string }{{"pooled", g.Pooled}, {"fresh", g.Fresh}} {
			if side.bench == "" {
				continue // ceiling-only gate
			}
			for _, m := range []allocMetric{
				{"allocs", allocs, "allocs/op"},
				{"bytes", bytes, "B/op"},
			} {
				s, ok := m.samples[side.bench]
				if !ok {
					if m.suffix == "bytes" {
						continue // B/op column absent: tolerated, allocs gate still applies
					}
					return nil, fmt.Errorf("benchhist: no %s samples for %s (gate %s)", m.unit, side.bench, g.Name)
				}
				entries = append(entries, Entry{
					Commit:    commit,
					Date:      date,
					Benchmark: fmt.Sprintf("%s-%s-%s", g.Name, m.suffix, side.label),
					Value:     median(s),
					Unit:      m.unit,
				})
			}
		}
	}
	return entries, nil
}

// CheckAllocs enforces every gate's pooled ceiling and, for gates with a
// fresh variant, its fresh/pooled floor over parsed allocs/op samples.
func CheckAllocs(allocs map[string][]float64, gates []AllocGate) error {
	var fails []string
	for _, g := range gates {
		pooled, ok := allocs[g.Pooled]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: no samples for %s", g.Name, g.Pooled))
			continue
		}
		mp := median(pooled)
		if mp > g.MaxPooledAllocs {
			fails = append(fails, fmt.Sprintf("%s: pooled %.1f allocs/op above ceiling %.1f",
				g.Name, mp, g.MaxPooledAllocs))
		}
		if g.Fresh == "" {
			continue
		}
		fresh, ok := allocs[g.Fresh]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: no samples for %s", g.Name, g.Fresh))
			continue
		}
		if mf := median(fresh); mf < g.MinRatio*mp {
			fails = append(fails, fmt.Sprintf("%s: fresh %.1f allocs/op is under %.1fx pooled %.1f — pooling stopped paying off",
				g.Name, mf, g.MinRatio, mp))
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("benchhist: allocation regression:\n  %s", strings.Join(fails, "\n  "))
	}
	return nil
}
