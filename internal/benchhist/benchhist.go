// Package benchhist gates paired fast/slow speedup ratios in `go test
// -bench` output. The fast-path engine's benchmarks run both
// implementations in one process (BenchmarkVMStep/{fast,slow},
// BenchmarkHuffmanDecode/{table,tree}, ...), so the within-process ratio is
// robust to machine-load noise even on shared CI runners; this package
// extracts those ratios and fails when one regresses past its floor. The
// ratios are a gate, not a trajectory: the raw bench output is the record.
package benchhist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Pair names one fast/slow benchmark pairing and the minimum acceptable
// speedup (median slow ns/op over median fast ns/op).
type Pair struct {
	// Name identifies the pair in entries and reports.
	Name string
	// Fast and Slow are benchmark names as printed by `go test -bench`,
	// without the -GOMAXPROCS suffix.
	Fast string
	Slow string
	// Min is the ratio floor: the CI gate fails below it. Floors sit well
	// under the measured ratios so load noise does not flake the job, but
	// above 1.0 by enough margin to catch a fast path that quietly stopped
	// being fast.
	Min float64
}

// DefaultPairs covers every fast path the engine ships. Measured ratios on
// the development machine are noted for scale; floors are deliberately
// loose (roughly half or less).
func DefaultPairs() []Pair {
	return []Pair{
		// Predecoded µop dispatch vs decode-every-step, one Step call per
		// instruction (1.5-2.5x measured).
		{Name: "vm-step", Fast: "BenchmarkVMStep/fast", Slow: "BenchmarkVMStep/slow", Min: 1.3},
		// Run to halt: block dispatch vs one reference step per
		// instruction (~2.8x measured, 2.6-3.5x).
		{Name: "vm-run", Fast: "BenchmarkVMRun/fast", Slow: "BenchmarkVMRun/slow", Min: 1.6},
		// Table-driven canonical Huffman vs the paper's DECODE() loop (~4.6x).
		{Name: "huffman-decode", Fast: "BenchmarkHuffmanDecode/table", Slow: "BenchmarkHuffmanDecode/tree", Min: 2.0},
		// Memoized region fill vs fresh split-stream decode (~40x).
		{Name: "region-decompress", Fast: "BenchmarkRegionDecompress/memo", Slow: "BenchmarkRegionDecompress/decode", Min: 8.0},
		// Interp-in-place region visit: decoded-instruction memo vs
		// re-decoding the region per entry (~65x).
		{Name: "interp-region-exec", Fast: "BenchmarkInterpRegionExec/memo", Slow: "BenchmarkInterpRegionExec/decode", Min: 3.0},
		// LZ token decode on real code (raw escapes shared by both paths
		// dilute the pair, ~1.5x) and on the codeword-bound corpus (~3x).
		{Name: "lz-decode-adpcm", Fast: "BenchmarkLZDecode/adpcm/table", Slow: "BenchmarkLZDecode/adpcm/tree", Min: 1.2},
		{Name: "lz-decode-dictheavy", Fast: "BenchmarkLZDecode/dictheavy/table", Slow: "BenchmarkLZDecode/dictheavy/tree", Min: 2.0},
	}
}

// Entry is the ratio one fast/slow benchmark pair achieved.
type Entry struct {
	Benchmark string
	Ratio     float64
}

// ParseNsPerOp extracts ns/op samples from `go test -bench` text output.
// Sub-benchmark names keep their slashes, and repeated runs (-count N)
// accumulate as samples.
//
// The trailing -GOMAXPROCS suffix is stripped, but only when it really is
// the GOMAXPROCS suffix: `go test` appends the same `-N` to *every*
// benchmark line of a run (and appends nothing at GOMAXPROCS=1), whereas a
// sub-benchmark whose leaf name itself ends in `-<digits>`
// (BenchmarkFoo/size-128) carries its digits on just its own lines. So the
// suffix is identified across the whole input first — it is stripped only
// if every benchmark line ends in the same `-N` — instead of blindly
// cutting at the last dash per line, which used to merge
// `BenchmarkFoo/size-128` at GOMAXPROCS=1 into `BenchmarkFoo/size`.
func ParseNsPerOp(r io.Reader) (map[string][]float64, error) {
	type sample struct {
		name string
		v    float64
	}
	var samples []sample
	suffix := ""    // trailing -N shared by all lines so far ("" = none)
	uniform := true // every line seen ends in the same -N
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// Benchmark lines: name, iterations, value, "ns/op", [more metrics].
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		var val float64
		found := false
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchhist: bad ns/op %q for %s", fields[i], name)
			}
			val = v
			found = true
			break
		}
		if !found {
			continue
		}
		cand := ""
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				cand = name[i:]
			}
		}
		if len(samples) == 0 {
			suffix = cand
		} else if cand != suffix {
			uniform = false
		}
		samples = append(samples, sample{name, val})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	for _, s := range samples {
		name := s.name
		if uniform && suffix != "" {
			name = strings.TrimSuffix(name, suffix)
		}
		out[name] = append(out[name], s.v)
	}
	return out, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Ratios computes each pair's speedup (median slow over median fast) from
// parsed samples. Every pair must be present: a missing benchmark means the
// bench run silently dropped a fast path, which is itself a regression.
func Ratios(samples map[string][]float64, pairs []Pair) ([]Entry, error) {
	var entries []Entry
	for _, p := range pairs {
		fast, ok := samples[p.Fast]
		if !ok {
			return nil, fmt.Errorf("benchhist: no samples for %s (pair %s)", p.Fast, p.Name)
		}
		slow, ok := samples[p.Slow]
		if !ok {
			return nil, fmt.Errorf("benchhist: no samples for %s (pair %s)", p.Slow, p.Name)
		}
		mf := median(fast)
		if mf <= 0 {
			return nil, fmt.Errorf("benchhist: nonpositive ns/op for %s", p.Fast)
		}
		entries = append(entries, Entry{Benchmark: p.Name, Ratio: median(slow) / mf})
	}
	return entries, nil
}

// Check enforces each pair's ratio floor over freshly computed entries.
func Check(entries []Entry, pairs []Pair) error {
	min := map[string]float64{}
	for _, p := range pairs {
		min[p.Name] = p.Min
	}
	var fails []string
	for _, e := range entries {
		if floor, ok := min[e.Benchmark]; ok && e.Ratio < floor {
			fails = append(fails, fmt.Sprintf("%s: ratio %.2f below floor %.2f", e.Benchmark, e.Ratio, floor))
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("benchhist: speedup regression:\n  %s", strings.Join(fails, "\n  "))
	}
	return nil
}
