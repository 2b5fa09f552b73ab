package benchhist

import (
	"strings"
	"testing"
)

const benchmemOut = `
goos: linux
BenchmarkBitIOAlloc/pooled-8         	  10000	   4500 ns/op	      1 B/op	      0 allocs/op
BenchmarkBitIOAlloc/fresh-8          	  10000	   4300 ns/op	    560 B/op	      5 allocs/op
BenchmarkBitIOAlloc/pooled-8         	  10000	   4400 ns/op	      1 B/op	      0 allocs/op
BenchmarkBitIOAlloc/fresh-8          	  10000	   4350 ns/op	    560 B/op	      6 allocs/op
PASS
`

func testGates() []AllocGate {
	return []AllocGate{{
		Name:   "bitio",
		Pooled: "BenchmarkBitIOAlloc/pooled", Fresh: "BenchmarkBitIOAlloc/fresh",
		MaxPooledAllocs: 1, MinRatio: 4,
	}}
}

func TestParseMetricAllocs(t *testing.T) {
	allocs, err := ParseMetric(strings.NewReader(benchmemOut), "allocs/op")
	if err != nil {
		t.Fatal(err)
	}
	if got := allocs["BenchmarkBitIOAlloc/fresh"]; len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("fresh allocs/op samples = %v, want [5 6]", got)
	}
	bytes, err := ParseMetric(strings.NewReader(benchmemOut), "B/op")
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes["BenchmarkBitIOAlloc/pooled"]; len(got) != 2 || got[0] != 1 {
		t.Fatalf("pooled B/op samples = %v, want [1 1]", got)
	}
}

func TestAllocEntriesAndCheck(t *testing.T) {
	allocs, _ := ParseMetric(strings.NewReader(benchmemOut), "allocs/op")
	bytes, _ := ParseMetric(strings.NewReader(benchmemOut), "B/op")
	entries, err := AllocEntries(allocs, bytes, testGates(), "abc", "2026-08-09")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"bitio-allocs-pooled": 0, "bitio-allocs-fresh": 5.5,
		"bitio-bytes-pooled": 1, "bitio-bytes-fresh": 560,
	}
	if len(entries) != len(want) {
		t.Fatalf("got %d entries, want %d", len(entries), len(want))
	}
	for _, e := range entries {
		v, ok := want[e.Benchmark]
		if !ok {
			t.Fatalf("unexpected entry %q", e.Benchmark)
		}
		if e.Value != v {
			t.Errorf("%s = %v, want %v", e.Benchmark, e.Value, v)
		}
		if e.Unit != "allocs/op" && e.Unit != "B/op" {
			t.Errorf("%s has unit %q", e.Benchmark, e.Unit)
		}
	}
	if err := CheckAllocs(allocs, testGates()); err != nil {
		t.Fatalf("CheckAllocs on healthy samples: %v", err)
	}
}

func TestCheckAllocsFailures(t *testing.T) {
	// Pooled path regressed to 3 allocs/op: the ceiling must trip, and with
	// fresh at 6 the 4x ratio floor must trip too.
	allocs := map[string][]float64{
		"BenchmarkBitIOAlloc/pooled": {3},
		"BenchmarkBitIOAlloc/fresh":  {6},
	}
	err := CheckAllocs(allocs, testGates())
	if err == nil {
		t.Fatal("CheckAllocs passed a pooled regression")
	}
	if !strings.Contains(err.Error(), "ceiling") || !strings.Contains(err.Error(), "stopped paying off") {
		t.Fatalf("error missing ceiling/ratio detail: %v", err)
	}

	// A missing gated benchmark is a failure, not a skip.
	if err := CheckAllocs(map[string][]float64{}, testGates()); err == nil {
		t.Fatal("CheckAllocs passed with no samples")
	}
}

func TestAllocEntriesMissingBenchmark(t *testing.T) {
	allocs := map[string][]float64{"BenchmarkBitIOAlloc/pooled": {0}}
	if _, err := AllocEntries(allocs, nil, testGates(), "abc", "2026-08-09"); err == nil {
		t.Fatal("AllocEntries tolerated a missing fresh benchmark")
	}
	// Absent B/op columns are tolerated (benchmem output without -benchmem
	// B/op is impossible in practice, but gates must not hard-require it).
	full := map[string][]float64{
		"BenchmarkBitIOAlloc/pooled": {0},
		"BenchmarkBitIOAlloc/fresh":  {5},
	}
	entries, err := AllocEntries(full, map[string][]float64{}, testGates(), "abc", "2026-08-09")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries without B/op, want 2", len(entries))
	}
}

func TestCeilingOnlyGate(t *testing.T) {
	gates := []AllocGate{{Name: "codec", Pooled: "BenchmarkCodec", MaxPooledAllocs: 2}}
	for _, tc := range []struct {
		name    string
		allocs  []float64
		wantErr bool
	}{
		{"zero", []float64{0, 0}, false},
		{"at ceiling", []float64{2, 2}, false},
		{"above ceiling", []float64{3, 3}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := map[string][]float64{"BenchmarkCodec": tc.allocs}
			bytes := map[string][]float64{"BenchmarkCodec": {21}}
			err := CheckAllocs(allocs, gates)
			if (err != nil) != tc.wantErr {
				t.Fatalf("CheckAllocs err = %v, want error %v", err, tc.wantErr)
			}
			if err != nil && !strings.Contains(err.Error(), "ceiling") {
				t.Fatalf("error missing ceiling detail: %v", err)
			}
			entries, err := AllocEntries(allocs, bytes, gates, "abc", "2026-10-17")
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 2 {
				t.Fatalf("got %d entries, want 2 (pooled allocs and bytes)", len(entries))
			}
			for _, e := range entries {
				if strings.HasSuffix(e.Benchmark, "-fresh") {
					t.Errorf("ceiling-only gate emitted fresh entry %q", e.Benchmark)
				}
			}
		})
	}
}
