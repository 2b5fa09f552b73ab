// Package benchhist turns `go test -bench` output into a per-commit history
// of paired fast/slow speedup ratios. The fast-path engine's benchmarks run
// both implementations in one process (BenchmarkVMStep/{fast,slow},
// BenchmarkHuffmanDecode/{table,tree}, ...), so the within-process ratio is
// robust to machine-load noise even on shared CI runners; this package
// extracts those ratios, appends them to BENCH_history.json (one entry per
// commit × benchmark), and fails when a ratio regresses past its floor —
// replacing the one-shot snapshot + manual benchstat workflow.
package benchhist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Pair names one fast/slow benchmark pairing and the minimum acceptable
// speedup (median slow ns/op over median fast ns/op).
type Pair struct {
	// Name identifies the pair in history entries and reports.
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

// Entry is one history record at one commit: either the ratio a fast/slow
// benchmark pair achieved (Ratio set) or an absolute metric such as an
// allocation median (Value and Unit set). Ratio is omitempty so value
// entries don't carry a meaningless zero ratio; pair ratios are always
// positive, so existing history files round-trip unchanged.
type Entry struct {
	Commit    string  `json:"commit"`
	Date      string  `json:"date"`
	Benchmark string  `json:"benchmark"`
	Ratio     float64 `json:"ratio,omitempty"`
	Value     float64 `json:"value,omitempty"`
	Unit      string  `json:"unit,omitempty"`
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
	return ParseMetric(r, "ns/op")
}

// ParseMetric extracts samples of one benchmark metric (by its unit column:
// "ns/op", "allocs/op", "B/op", ...) from `go test -bench` output, with the
// same sub-benchmark and GOMAXPROCS-suffix handling as ParseNsPerOp.
func ParseMetric(r io.Reader, unit string) (map[string][]float64, error) {
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
			if fields[i+1] != unit {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchhist: bad %s %q for %s", unit, fields[i], name)
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
func Ratios(samples map[string][]float64, pairs []Pair, commit, date string) ([]Entry, error) {
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
		entries = append(entries, Entry{
			Commit:    commit,
			Date:      date,
			Benchmark: p.Name,
			Ratio:     median(slow) / mf,
		})
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

// Read loads a history file; a missing file is an empty history.
func Read(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("benchhist: %s: %w", path, err)
	}
	return entries, nil
}

// Append adds entries to the history file, creating it if absent. Existing
// entries for the same (commit, benchmark) pair are replaced, so a re-run CI
// job overwrites its commit's ratios instead of doubling them.
func Append(path string, entries []Entry) error {
	history, err := Read(path)
	if err != nil {
		return err
	}
	replacing := map[[2]string]bool{}
	for _, e := range entries {
		replacing[[2]string{e.Commit, e.Benchmark}] = true
	}
	kept := history[:0]
	for _, e := range history {
		if !replacing[[2]string{e.Commit, e.Benchmark}] {
			kept = append(kept, e)
		}
	}
	history = append(kept, entries...)
	data, err := json.MarshalIndent(history, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
