package benchhist

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/vm
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkVMStep/fast-8         	201182786	         5.90 ns/op
BenchmarkVMStep/fast-8         	202000000	         6.10 ns/op
BenchmarkVMStep/fast-8         	198000000	         5.80 ns/op
BenchmarkVMStep/slow-8         	 93070840	        12.77 ns/op
BenchmarkVMStep/slow-8         	 92000000	        13.03 ns/op
BenchmarkVMStep/slow-8         	 95000000	        12.50 ns/op
BenchmarkHuffmanDecode/table-8 	126620407	         9.33 ns/op	 107.20 MB/s
BenchmarkHuffmanDecode/tree-8  	 28580395	        42.07 ns/op	  23.77 MB/s
PASS
ok  	repro/internal/vm	12.290s
`

func TestParseNsPerOp(t *testing.T) {
	samples, err := ParseNsPerOp(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(samples["BenchmarkVMStep/fast"]); got != 3 {
		t.Fatalf("fast samples = %d, want 3 (got map %v)", got, samples)
	}
	if got := samples["BenchmarkHuffmanDecode/tree"]; len(got) != 1 || got[0] != 42.07 {
		t.Fatalf("tree samples = %v", got)
	}
	if _, ok := samples["BenchmarkVMStep/fast-8"]; ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
}

// TestParseNsPerOpSuffixShapes: the GOMAXPROCS suffix is appended to every
// benchmark line of a run (and to none at GOMAXPROCS=1), so it must be
// identified across the whole input — a leaf name ending in -<digits> is
// part of the benchmark's identity, not a suffix to strip.
func TestParseNsPerOpSuffixShapes(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  map[string]int // benchmark name -> sample count
	}{
		{
			name: "gomaxprocs 8, plain leaves",
			input: "BenchmarkVMStep/fast-8 100 5.0 ns/op\n" +
				"BenchmarkVMStep/slow-8 100 10.0 ns/op\n",
			want: map[string]int{"BenchmarkVMStep/fast": 1, "BenchmarkVMStep/slow": 1},
		},
		{
			name: "gomaxprocs 8, digit leaf keeps its digits",
			input: "BenchmarkFoo/size-128-8 100 5.0 ns/op\n" +
				"BenchmarkFoo/size-256-8 100 6.0 ns/op\n" +
				"BenchmarkBar-8 100 7.0 ns/op\n",
			want: map[string]int{"BenchmarkFoo/size-128": 1, "BenchmarkFoo/size-256": 1, "BenchmarkBar": 1},
		},
		{
			name: "gomaxprocs 1, digit leaf not merged",
			input: "BenchmarkFoo/size-128 100 5.0 ns/op\n" +
				"BenchmarkFoo/size 100 6.0 ns/op\n" +
				"BenchmarkBar 100 7.0 ns/op\n",
			want: map[string]int{"BenchmarkFoo/size-128": 1, "BenchmarkFoo/size": 1, "BenchmarkBar": 1},
		},
		{
			name: "gomaxprocs 1 with -count 2, digit leaf accumulates alone",
			input: "BenchmarkFoo/size-128 100 5.0 ns/op\n" +
				"BenchmarkFoo/size-128 100 5.5 ns/op\n" +
				"BenchmarkBar 100 7.0 ns/op\n",
			want: map[string]int{"BenchmarkFoo/size-128": 2, "BenchmarkBar": 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			samples, err := ParseNsPerOp(strings.NewReader(tc.input))
			if err != nil {
				t.Fatal(err)
			}
			if len(samples) != len(tc.want) {
				t.Fatalf("got names %v, want %v", samples, tc.want)
			}
			for name, n := range tc.want {
				if got := len(samples[name]); got != n {
					t.Errorf("%s: %d samples, want %d (map %v)", name, got, n, samples)
				}
			}
		})
	}
}

func TestRatiosAndCheck(t *testing.T) {
	samples, err := ParseNsPerOp(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	pairs := []Pair{
		{Name: "vm-step", Fast: "BenchmarkVMStep/fast", Slow: "BenchmarkVMStep/slow", Min: 1.3},
		{Name: "huffman-decode", Fast: "BenchmarkHuffmanDecode/table", Slow: "BenchmarkHuffmanDecode/tree", Min: 2.0},
	}
	entries, err := Ratios(samples, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d entries", len(entries))
	}
	// Medians: fast 5.90, slow 12.77 → ratio ~2.164.
	if r := entries[0].Ratio; r < 2.1 || r > 2.2 {
		t.Fatalf("vm-step ratio %.3f", r)
	}
	if entries[0].Benchmark != "vm-step" {
		t.Fatalf("entry name: %+v", entries[0])
	}
	if err := Check(entries, pairs); err != nil {
		t.Fatalf("Check on healthy ratios: %v", err)
	}
	strict := []Pair{{Name: "vm-step", Min: 5.0}}
	if err := Check(entries, strict); err == nil {
		t.Fatal("Check missed a regression")
	}

	missing := append(pairs, Pair{Name: "ghost", Fast: "BenchmarkGhost/fast", Slow: "BenchmarkGhost/slow", Min: 1})
	if _, err := Ratios(samples, missing); err == nil {
		t.Fatal("missing benchmark accepted")
	}
}

func TestDefaultPairsCoverFastPaths(t *testing.T) {
	names := map[string]bool{}
	for _, p := range DefaultPairs() {
		if p.Min <= 1.0 {
			t.Errorf("%s: floor %.2f would accept a fast path slower than the reference", p.Name, p.Min)
		}
		if names[p.Name] {
			t.Errorf("duplicate pair %s", p.Name)
		}
		names[p.Name] = true
	}
	for _, want := range []string{"vm-step", "vm-run", "huffman-decode", "region-decompress", "interp-region-exec", "lz-decode-adpcm", "lz-decode-dictheavy"} {
		if !names[want] {
			t.Errorf("pair %s missing", want)
		}
	}
}
