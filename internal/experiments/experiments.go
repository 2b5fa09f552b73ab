// Package experiments reproduces every table and figure of the paper's
// evaluation (§7): Table 1 (program sizes before and after squeeze),
// Figure 3 (code size versus the runtime-buffer bound K), Figure 4 (cold
// and compressible code versus θ), Figure 5 (the benchmark inputs),
// Figure 6 (code size reduction versus θ), Figure 7 (size and execution
// time at low thresholds), and the in-text statistics: the achieved
// compression factor γ (§3), the buffer-safe call fraction (§6.1), the
// restore-stub counts and the compile-time-stub cost (§2.2), and the
// cold-loop pathology (§7).
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/mediabench"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/squeeze"
	"repro/internal/vm"
)

// Bench is one prepared benchmark: assembled, squeezed, linked, profiled.
type Bench struct {
	Spec         mediabench.Spec
	InputInsts   int
	SqueezeStats *squeeze.Stats
	SqObj        *objfile.Object
	SqImage      *objfile.Image
	Profile      profile.Counts

	// Obs, when set, receives pipeline spans and metrics from every Squash
	// of this bench. Squash output is byte-identical with or without it.
	Obs *obs.Recorder

	timingOnce   sync.Once
	timingErr    error
	timingOut    []byte
	timingCycles uint64
}

// SqueezedInsts reports the squeezed program size in instructions.
func (b *Bench) SqueezedInsts() int { return len(b.SqObj.Text) }

// Suite is the prepared benchmark set plus measurement caches.
type Suite struct {
	Benches []*Bench
	// Scale shrinks the profiling/timing inputs for quick runs; 1.0 is the
	// full configuration.
	Scale float64
	// Workers bounds the goroutines used to run experiment matrix cells
	// (benchmark × θ × variant) and the squash pipeline inside each cell;
	// <= 0 means one per CPU, 1 forces serial runs. Every table is
	// assembled in fixed cell order, so reports are identical at any
	// worker count.
	Workers int
	// PrepCacheHits counts the benchmarks whose preparation was served from
	// the content-keyed cache (memory or disk) instead of recomputed.
	PrepCacheHits int
	// Obs is the telemetry recorder the suite was loaded with (nil when
	// loaded without one); every bench's squashes report into it.
	Obs *obs.Recorder
}

// LoadCachedObs prepares the full suite at the given input scale (1.0 =
// full; the quick test configuration uses ~0.05). Benchmark preparation
// (generate, assemble, squeeze, link, profile) fans out across the given
// worker count (<= 0 means one per CPU), and the suite's experiment runs
// reuse the same budget. Each benchmark's preparation is self-contained,
// so the suite is identical at any worker count.
//
// Prepared artifacts (the squeezed object and the profile) are cached
// under a content key of the generated program and its profiling input,
// in memory always and in cacheDir when it is not empty, so repeated loads
// of unchanged benchmarks skip generation, assembly, squeezing, and the
// profiling run. Cache hits are identical to recomputation by
// construction: both paths decode the same serialized payload.
//
// With a telemetry recorder, suite preparation gets a span tree (one
// "prepare" fork per benchmark, with assemble/cfg/squeeze/link/profile
// children on cache misses), and the recorder is installed on the suite
// and every bench so subsequent squashes report into it. rec may be nil.
func LoadCachedObs(scale float64, workers int, cacheDir string, rec *obs.Recorder) (*Suite, error) {
	specs := mediabench.Specs()
	hits := make([]bool, len(specs))
	root := rec.Span("suite.prepare", "scale", scale, "benches", len(specs))
	benches, err := parallel.Map(len(specs), workers, func(i int) (*Bench, error) {
		sp := root.Fork("prepare", "bench", specs[i].Name)
		b, hit, err := prepareCachedObs(specs[i], scale, cacheDir, sp)
		sp.SetArg("cache_hit", hit)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", specs[i].Name, err)
		}
		hits[i] = hit
		b.Obs = rec
		return b, nil
	})
	root.End()
	if err != nil {
		return nil, err
	}
	s := &Suite{Benches: benches, Scale: scale, Workers: workers, Obs: rec}
	for _, h := range hits {
		if h {
			s.PrepCacheHits++
		}
	}
	return s, nil
}

// conf returns the paper's default configuration wired to the suite's
// worker budget.
func (s *Suite) conf() core.Config {
	c := core.DefaultConfig()
	c.Workers = s.Workers
	return c
}

// warmBaselines runs every benchmark's baseline timing in parallel so the
// per-bench caches are filled before matrix cells start comparing against
// them.
func (s *Suite) warmBaselines() error {
	return parallel.ForEach(len(s.Benches), s.Workers, func(i int) error {
		_, _, err := s.Benches[i].BaselineTiming()
		return err
	})
}

// Squash runs the rewriter on the bench at the given configuration,
// reporting into the bench's recorder when one is attached.
func (b *Bench) Squash(conf core.Config) (*core.Output, error) {
	return core.SquashObs(b.SqObj, b.Profile, conf, b.Obs)
}

// BaselineTiming runs the squeezed binary on the timing input (cached; safe
// for concurrent use by parallel matrix cells).
func (b *Bench) BaselineTiming() (out []byte, cycles uint64, err error) {
	b.timingOnce.Do(func() {
		m := vm.New(b.SqImage, b.Spec.TimingInput())
		if err := m.Run(); err != nil {
			b.timingErr = err
			return
		}
		b.timingOut = m.Output
		b.timingCycles = m.Cycles
	})
	if b.timingErr != nil {
		return nil, 0, b.timingErr
	}
	return b.timingOut, b.timingCycles, nil
}

// RunSquashed executes a squashed image on input and verifies behavioural
// equivalence against expected output (pass nil to skip the check).
func RunSquashed(out *core.Output, input, expect []byte) (*vm.Machine, *core.Runtime, error) {
	rt, err := core.NewRuntime(out.Meta)
	if err != nil {
		return nil, nil, err
	}
	m := vm.New(out.Image, input)
	rt.Install(m)
	if err := m.Run(); err != nil {
		return nil, nil, err
	}
	if expect != nil && string(m.Output) != string(expect) {
		return nil, nil, fmt.Errorf("squashed output diverges from baseline")
	}
	return m, rt, nil
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned plain text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s\n\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "\n%s\n", n)
	}
	return sb.String()
}

func geoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

func pct(x float64) string   { return fmt.Sprintf("%.1f%%", 100*x) }
func f3(x float64) string    { return fmt.Sprintf("%.3f", x) }
func itoa(x int) string      { return fmt.Sprintf("%d", x) }
func u64toa(x uint64) string { return fmt.Sprintf("%d", x) }

// ThetaSet is the θ sweep used across the figures (the paper's axis points).
var ThetaSet = []float64{0, 0.00001, 0.00005, 0.0001, 0.001, 0.01, 1.0}

// Fig7Thetas are the low thresholds of Figure 7.
var Fig7Thetas = []float64{0, 0.00001, 0.00005}

// Table1 reproduces the program size table: instructions before and after
// squeeze, against the paper's values.
func Table1(s *Suite) *Table {
	t := &Table{
		Title:  "Table 1: code size data for the benchmarks (instructions)",
		Header: []string{"program", "input", "paper", "squeeze", "paper", "reduction", "paper"},
	}
	for _, b := range s.Benches {
		paperRed := 1 - float64(b.Spec.TargetSqueeze)/float64(b.Spec.TargetInput)
		t.Rows = append(t.Rows, []string{
			b.Spec.Name,
			itoa(b.InputInsts), itoa(b.Spec.TargetInput),
			itoa(b.SqueezedInsts()), itoa(b.Spec.TargetSqueeze),
			pct(b.SqueezeStats.Reduction()), pct(paperRed),
		})
	}
	t.Notes = append(t.Notes, "Paper columns are Table 1 of Debray & Evans (PLDI 2002).")
	return t
}

// Fig3 reproduces the buffer-bound sweep: overall squashed size (relative
// to squeezed) versus K, for three thresholds plus their mean. The paper
// finds the minimum near K = 256–512.
func Fig3(s *Suite, ks []int, thetas []float64) (*Table, error) {
	t := &Table{
		Title:  "Figure 3: effect of buffer size bound K on code size (squashed/squeezed, geo-mean)",
		Header: []string{"K (bytes)"},
	}
	for _, th := range thetas {
		t.Header = append(t.Header, fmt.Sprintf("θ=%g", th))
	}
	t.Header = append(t.Header, "mean")
	// One matrix cell per (K, θ, benchmark), fanned across the suite's
	// workers and collected in flat index order.
	nB := len(s.Benches)
	ratios, err := parallel.Map(len(ks)*len(thetas)*nB, s.Workers, func(idx int) (float64, error) {
		k := ks[idx/(len(thetas)*nB)]
		th := thetas[idx/nB%len(thetas)]
		b := s.Benches[idx%nB]
		conf := s.conf()
		conf.Theta = th
		conf.Regions.K = k
		out, err := b.Squash(conf)
		if err != nil {
			return 0, fmt.Errorf("%s K=%d θ=%g: %w", b.Spec.Name, k, th, err)
		}
		return float64(out.Stats.SquashedBytes) / float64(out.Stats.InputBytes), nil
	})
	if err != nil {
		return nil, err
	}
	for ki, k := range ks {
		row := []string{itoa(k)}
		var all []float64
		for ti := range thetas {
			cell := ratios[(ki*len(thetas)+ti)*nB : (ki*len(thetas)+ti+1)*nB]
			m := geoMean(cell)
			all = append(all, m)
			row = append(row, f3(m))
		}
		row = append(row, f3(geoMean(all)))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"The paper's curves reach their minimum at K=256 and K=512; it adopts K=512.")
	return t, nil
}

// Fig4 reproduces the cold/compressible fractions versus θ (geometric mean
// across programs). The paper reports ~73% cold at θ=0 rising to ~94% at
// θ=0.01, with compressible code a few points below cold code throughout.
func Fig4(s *Suite, thetas []float64) (*Table, error) {
	t := &Table{
		Title:  "Figure 4: amount of cold and compressible code vs θ (geo-mean fraction of program)",
		Header: []string{"θ", "cold", "compressible"},
	}
	nB := len(s.Benches)
	type frac struct{ cold, comp float64 }
	cells, err := parallel.Map(len(thetas)*nB, s.Workers, func(idx int) (frac, error) {
		th := thetas[idx/nB]
		b := s.Benches[idx%nB]
		conf := s.conf()
		conf.Theta = th
		out, err := b.Squash(conf)
		if err != nil {
			return frac{}, err
		}
		st := out.Stats
		return frac{
			cold: math.Max(float64(st.ColdInsts)/float64(st.TotalInsts), 1e-9),
			comp: math.Max(float64(st.CompressibleInsts)/float64(st.TotalInsts), 1e-9),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for ti, th := range thetas {
		var colds, comps []float64
		for _, c := range cells[ti*nB : (ti+1)*nB] {
			colds = append(colds, c.cold)
			comps = append(comps, c.comp)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", th), pct(geoMean(colds)), pct(geoMean(comps)),
		})
	}
	t.Notes = append(t.Notes,
		"Paper: cold ≈73% at θ=0, ≈94% at θ=0.01, 100% at θ=1; compressible ≈96% of cold at θ=1.")
	return t, nil
}

// Fig5 reproduces the benchmark input table.
func Fig5(s *Suite) *Table {
	t := &Table{
		Title:  "Figure 5: inputs used for profiling and timing runs",
		Header: []string{"program", "profiling bytes", "timing bytes", "semi-rare triggers", "never-profiled rate"},
	}
	for _, b := range s.Benches {
		t.Rows = append(t.Rows, []string{
			b.Spec.Name,
			itoa(len(b.Spec.ProfilingInput())),
			itoa(len(b.Spec.TimingInput())),
			"16 (once each in profile)",
			fmt.Sprintf("%.5f", b.Spec.TriggerRate/40),
		})
	}
	t.Notes = append(t.Notes,
		"The paper's real audio/image inputs are replaced by synthetic byte streams;",
		"see DESIGN.md for the substitution argument.")
	return t
}

// SquashMatrix squashes every benchmark at every θ (benchmark-major order,
// paper defaults otherwise) with cells fanned across the given worker count
// and the same count inside each cell's pipeline; workers <= 0 means one
// per CPU and 1 forces a fully serial sweep. Outputs are returned in cell
// order and are byte-identical at any worker count. This is the experiment
// matrix's hot path and the unit BenchmarkSquashMatrix* measures.
func SquashMatrix(s *Suite, thetas []float64, workers int) ([]*core.Output, error) {
	return parallel.Map(len(s.Benches)*len(thetas), workers, func(idx int) (*core.Output, error) {
		b := s.Benches[idx/len(thetas)]
		th := thetas[idx%len(thetas)]
		conf := core.DefaultConfig()
		conf.Theta = th
		conf.Workers = workers
		out, err := b.Squash(conf)
		if err != nil {
			return nil, fmt.Errorf("%s θ=%g: %w", b.Spec.Name, th, err)
		}
		return out, nil
	})
}

// Fig6 reproduces the size-reduction-vs-θ sweep per program.
func Fig6(s *Suite, thetas []float64) (*Table, error) {
	t := &Table{
		Title:  "Figure 6: code size reduction due to profile-guided compression at different thresholds",
		Header: []string{"program"},
	}
	for _, th := range thetas {
		t.Header = append(t.Header, fmt.Sprintf("θ=%g", th))
	}
	outs, err := SquashMatrix(s, thetas, s.Workers)
	if err != nil {
		return nil, err
	}
	means := make([]float64, len(thetas))
	counts := make([]int, len(thetas))
	for bi, b := range s.Benches {
		row := []string{b.Spec.Name}
		for i := range thetas {
			r := outs[bi*len(thetas)+i].Stats.Reduction()
			row = append(row, pct(r))
			means[i] += r
			counts[i]++
		}
		t.Rows = append(t.Rows, row)
	}
	mean := []string{"mean"}
	for i := range thetas {
		mean = append(mean, pct(means[i]/float64(counts[i])))
	}
	t.Rows = append(t.Rows, mean)
	t.Notes = append(t.Notes,
		"Paper means: 13.7% at θ=0, 16.8% at θ=1e-5, 26.5% at θ=1.",
		"This reproduction's split-stream coder achieves γ≈0.55 vs the paper's ≈0.66 on",
		"Alpha code, so absolute reductions run several points higher at equal shape.")
	return t, nil
}

// Fig7 reproduces both panels of Figure 7: code size and execution time
// relative to the squeezed baseline at the low thresholds.
func Fig7(s *Suite, thetas []float64) (*Table, *Table, error) {
	size := &Table{
		Title:  "Figure 7(a): code size relative to squeezed",
		Header: []string{"program"},
	}
	timeT := &Table{
		Title:  "Figure 7(b): execution time relative to squeezed",
		Header: []string{"program"},
	}
	for _, th := range thetas {
		size.Header = append(size.Header, fmt.Sprintf("θ=%g", th))
		timeT.Header = append(timeT.Header, fmt.Sprintf("θ=%g", th))
	}
	if err := s.warmBaselines(); err != nil {
		return nil, nil, err
	}
	// Each cell is a squash plus a full timing run on the simulator — the
	// expensive part of the matrix — so the cells themselves fan out.
	type rel struct{ size, time float64 }
	cells, err := parallel.Map(len(s.Benches)*len(thetas), s.Workers, func(idx int) (rel, error) {
		b := s.Benches[idx/len(thetas)]
		th := thetas[idx%len(thetas)]
		baseOut, baseCycles, err := b.BaselineTiming()
		if err != nil {
			return rel{}, err
		}
		conf := s.conf()
		conf.Theta = th
		out, err := b.Squash(conf)
		if err != nil {
			return rel{}, err
		}
		m, _, err := RunSquashed(out, b.Spec.TimingInput(), baseOut)
		if err != nil {
			return rel{}, fmt.Errorf("%s θ=%g: %w", b.Spec.Name, th, err)
		}
		return rel{
			size: float64(out.Stats.SquashedBytes) / float64(out.Stats.InputBytes),
			time: float64(m.Cycles) / float64(baseCycles),
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	sizeGeo := make([][]float64, len(thetas))
	timeGeo := make([][]float64, len(thetas))
	for bi, b := range s.Benches {
		srow := []string{b.Spec.Name}
		trow := []string{b.Spec.Name}
		for i := range thetas {
			c := cells[bi*len(thetas)+i]
			srow = append(srow, f3(c.size))
			trow = append(trow, f3(c.time))
			sizeGeo[i] = append(sizeGeo[i], c.size)
			timeGeo[i] = append(timeGeo[i], c.time)
		}
		size.Rows = append(size.Rows, srow)
		timeT.Rows = append(timeT.Rows, trow)
	}
	smean := []string{"geo-mean"}
	tmean := []string{"geo-mean"}
	for i := range thetas {
		smean = append(smean, f3(geoMean(sizeGeo[i])))
		tmean = append(tmean, f3(geoMean(timeGeo[i])))
	}
	size.Rows = append(size.Rows, smean)
	timeT.Rows = append(timeT.Rows, tmean)
	size.Notes = append(size.Notes, "Paper geo-means: 0.863 (θ=0) to 0.812 (θ=5e-5).")
	timeT.Notes = append(timeT.Notes, "Paper geo-means: ≈1.00 (θ=0), 1.04 (θ=1e-5), 1.24 (θ=5e-5).")
	return size, timeT, nil
}

// GammaStats reproduces the §3 statistic: the compressed program is ≈66% of
// its original size under plain split-stream coding, slightly better (but
// with a larger decompressor) under move-to-front.
func GammaStats(s *Suite) (*Table, error) {
	t := &Table{
		Title:  "§3: split-stream compression factor γ (compressed bytes / original bytes, θ=1)",
		Header: []string{"program", "γ plain", "γ with MTF", "tables plain (B)", "tables MTF (B)"},
	}
	type pair struct{ plain, mtf *core.Output }
	cells, err := parallel.Map(len(s.Benches), s.Workers, func(i int) (pair, error) {
		b := s.Benches[i]
		conf := s.conf()
		conf.Theta = 1
		plain, err := b.Squash(conf)
		if err != nil {
			return pair{}, err
		}
		conf.MTF = true
		mtf, err := b.Squash(conf)
		if err != nil {
			return pair{}, err
		}
		return pair{plain, mtf}, nil
	})
	if err != nil {
		return nil, err
	}
	var plains, mtfs []float64
	for i, b := range s.Benches {
		plain, mtf := cells[i].plain, cells[i].mtf
		plains = append(plains, plain.Stats.CompressionRatio)
		mtfs = append(mtfs, mtf.Stats.CompressionRatio)
		t.Rows = append(t.Rows, []string{
			b.Spec.Name,
			f3(plain.Stats.CompressionRatio), f3(mtf.Stats.CompressionRatio),
			itoa(plain.Foot.CodeTables), itoa(mtf.Foot.CodeTables),
		})
	}
	t.Rows = append(t.Rows, []string{"geo-mean", f3(geoMean(plains)), f3(geoMean(mtfs)), "", ""})
	t.Notes = append(t.Notes, "Paper: ≈0.66 for plain coding; MTF slightly better per stream but larger decompressor data.")
	return t, nil
}

// BufferSafeStats reproduces the §6.1 statistic: the fraction of call sites
// in compressible regions whose callee is buffer-safe.
func BufferSafeStats(s *Suite) (*Table, error) {
	t := &Table{
		Title:  "§6.1: buffer-safe callees among calls in compressible regions (θ=0)",
		Header: []string{"program", "safe calls", "total calls", "fraction"},
	}
	outs, err := parallel.Map(len(s.Benches), s.Workers, func(i int) (*core.Output, error) {
		return s.Benches[i].Squash(s.conf())
	})
	if err != nil {
		return nil, err
	}
	var fracs []float64
	for i, b := range s.Benches {
		st := outs[i].Stats
		frac := 0.0
		if st.CallsInRegions > 0 {
			frac = float64(st.BufferSafeCalls) / float64(st.CallsInRegions)
		}
		fracs = append(fracs, math.Max(frac, 1e-9))
		t.Rows = append(t.Rows, []string{
			b.Spec.Name, itoa(st.BufferSafeCalls), itoa(st.CallsInRegions), pct(frac),
		})
	}
	t.Rows = append(t.Rows, []string{"geo-mean", "", "", pct(geoMean(fracs))})
	t.Notes = append(t.Notes, "Paper: ≈12.5% on average; gsm ≈20%, g721_enc ≈19%.")
	return t, nil
}

// StubStats reproduces the §2.2 statistics: the maximum number of live
// runtime restore stubs (paper: 9 at θ=0.01), and the fraction of
// never-compressed code that compile-time restore stubs would occupy
// (paper: 13% at θ=0, 27% at θ=0.01).
func StubStats(s *Suite) (*Table, error) {
	t := &Table{
		Title:  "§2.2: restore stub statistics",
		Header: []string{"program", "max live stubs (θ=0.01)", "static stubs θ=0", "static stubs θ=0.01"},
	}
	if err := s.warmBaselines(); err != nil {
		return nil, err
	}
	type stubRow struct {
		live   int
		f0, f1 float64
	}
	cells, err := parallel.Map(len(s.Benches), s.Workers, func(i int) (stubRow, error) {
		b := s.Benches[i]
		conf := s.conf()
		conf.Theta = 0.01
		conf.StubCapacity = 64
		out, err := b.Squash(conf)
		if err != nil {
			return stubRow{}, err
		}
		baseOut, _, err := b.BaselineTiming()
		if err != nil {
			return stubRow{}, err
		}
		_, rt, err := RunSquashed(out, b.Spec.TimingInput(), baseOut)
		if err != nil {
			return stubRow{}, err
		}

		frac := func(theta float64) (float64, error) {
			c := s.conf()
			c.Theta = theta
			c.CompileTimeRestoreStubs = true
			o, err := b.Squash(c)
			if err != nil {
				return 0, err
			}
			nc := o.Foot.NeverCompressed + o.Foot.RestoreStubsStatic
			if nc == 0 {
				return 0, nil
			}
			return float64(o.Foot.RestoreStubsStatic) / float64(nc), nil
		}
		f0, err := frac(0)
		if err != nil {
			return stubRow{}, err
		}
		f1, err := frac(0.01)
		if err != nil {
			return stubRow{}, err
		}
		return stubRow{live: rt.Stats.MaxLiveStubs, f0: f0, f1: f1}, nil
	})
	if err != nil {
		return nil, err
	}
	maxLive := 0
	var f0s, f1s []float64
	for i, b := range s.Benches {
		c := cells[i]
		if c.live > maxLive {
			maxLive = c.live
		}
		f0s = append(f0s, c.f0)
		f1s = append(f1s, c.f1)
		t.Rows = append(t.Rows, []string{
			b.Spec.Name, itoa(c.live), pct(c.f0), pct(c.f1),
		})
	}
	mean := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	t.Rows = append(t.Rows, []string{"mean/max", itoa(maxLive), pct(mean(f0s)), pct(mean(f1s))})
	t.Notes = append(t.Notes,
		"Paper: at most 9 live stubs at θ=0.01; compile-time stubs would occupy 13%",
		"(θ=0) to 27% (θ=0.01) of never-compressed code on average.")
	return t, nil
}

// InterpComparison contrasts the paper's decompress-to-buffer runtime with
// the §8 alternative of interpreting compressed code in place
// (Fraser/Proebsting-style executable compressed code): footprint and
// execution time per program at a mid threshold. The paper argues for
// decompression; this table quantifies the argument on the same regions.
func InterpComparison(s *Suite) (*Table, error) {
	t := &Table{
		Title:  "§8: decompress-to-buffer vs interpret-in-place (θ=0.001)",
		Header: []string{"program", "size dec", "size interp", "time dec ×", "time interp ×"},
	}
	if err := s.warmBaselines(); err != nil {
		return nil, err
	}
	type cmp struct{ sd, si, td, ti float64 }
	cells, err := parallel.Map(len(s.Benches), s.Workers, func(i int) (cmp, error) {
		b := s.Benches[i]
		baseOut, baseCycles, err := b.BaselineTiming()
		if err != nil {
			return cmp{}, err
		}
		confD := s.conf()
		confD.Theta = 0.001
		confD.StubCapacity = 64
		dec, err := b.Squash(confD)
		if err != nil {
			return cmp{}, err
		}
		confI := confD
		confI.Interpret = true
		itp, err := b.Squash(confI)
		if err != nil {
			return cmp{}, err
		}
		mD, _, err := RunSquashed(dec, b.Spec.TimingInput(), baseOut)
		if err != nil {
			return cmp{}, err
		}
		mI, _, err := RunSquashed(itp, b.Spec.TimingInput(), baseOut)
		if err != nil {
			return cmp{}, err
		}
		return cmp{
			sd: float64(dec.Stats.SquashedBytes) / float64(dec.Stats.InputBytes),
			si: float64(itp.Stats.SquashedBytes) / float64(itp.Stats.InputBytes),
			td: float64(mD.Cycles) / float64(baseCycles),
			ti: float64(mI.Cycles) / float64(baseCycles),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var sizeD, sizeI, timeD, timeI []float64
	for i, b := range s.Benches {
		c := cells[i]
		sizeD = append(sizeD, c.sd)
		sizeI = append(sizeI, c.si)
		timeD = append(timeD, c.td)
		timeI = append(timeI, c.ti)
		t.Rows = append(t.Rows, []string{b.Spec.Name, f3(c.sd), f3(c.si), f3(c.td), f3(c.ti)})
	}
	t.Rows = append(t.Rows, []string{"geo-mean",
		f3(geoMean(sizeD)), f3(geoMean(sizeI)), f3(geoMean(timeD)), f3(geoMean(timeI))})
	t.Notes = append(t.Notes,
		"Interpretation trades the runtime buffer for a branch-target index (4 bytes per",
		"enterable boundary) and a per-execution decode cost; decompression pays per",
		"region entry. The paper (§8) chose decompression for the smaller representation.")
	return t, nil
}

// Pathology reproduces the §7 caution: profile-cold code executed in a
// cycle by the timing input (the li example), and a cold loop split across
// regions at small K (the mpeg2dec K=128 example), both of which make
// decompression dominate execution time.
func Pathology(s *Suite) (*Table, error) {
	t := &Table{
		Title:  "§7 pathology: cold code hot in the timing input",
		Header: []string{"program", "config", "input", "time ×", "decompressions"},
	}
	var target *Bench
	for _, b := range s.Benches {
		if b.Spec.Name == "mpeg2dec" {
			target = b
		}
	}
	if target == nil {
		return nil, fmt.Errorf("mpeg2dec not in suite")
	}
	cases := []struct {
		label string
		k     int
		input func() []byte
	}{
		{"K=512, timing input", 512, target.Spec.TimingInput},
		{"K=512, pathological input", 512, target.Spec.PathologyInput},
		{"K=128, pathological input", 128, target.Spec.PathologyInput},
	}
	rows, err := parallel.Map(len(cases), s.Workers, func(i int) ([]string, error) {
		c := cases[i]
		conf := s.conf()
		conf.Theta = 0.0001
		conf.Regions.K = c.k
		conf.StubCapacity = 64
		out, err := target.Squash(conf)
		if err != nil {
			return nil, err
		}
		// Each case runs its own baseline: the inputs differ per case, so
		// the shared BaselineTiming cache does not apply.
		input := c.input()
		base := vm.New(target.SqImage, input)
		if err := base.Run(); err != nil {
			return nil, err
		}
		m, rt, err := RunSquashed(out, input, base.Output)
		if err != nil {
			return nil, err
		}
		return []string{
			target.Spec.Name, c.label, itoa(len(input)),
			f3(float64(m.Cycles) / float64(base.Cycles)),
			u64toa(rt.Stats.Decompressions),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	t.Notes = append(t.Notes,
		"The paper describes the same effect for SPECint li (a profile-cold",
		"interprocedural cycle) and for mpeg2dec at K=128 (a loop split across regions).")
	return t, nil
}

// ICacheStats measures instruction-cache behaviour of squeezed versus
// squashed binaries on an embedded-scale cache. The paper's scheme touches
// the cache twice — the §2.1 flush after filling the runtime buffer, and
// the smaller text footprint of compressed programs — and its test machine
// had a 64 KB I-cache; embedded parts are far smaller, which is where the
// footprint effect shows.
func ICacheStats(s *Suite, cacheBytes uint32) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Instruction cache (%d KB direct-mapped, 64 B lines): miss rate", cacheBytes/1024),
		Header: []string{"program", "squeezed", "squashed θ=1e-4", "time × (with cache)"},
	}
	rows, err := parallel.Map(len(s.Benches), s.Workers, func(i int) ([]string, error) {
		b := s.Benches[i]
		input := b.Spec.TimingInput()
		base := vm.New(b.SqImage, input)
		base.AttachICache(vm.NewICache(cacheBytes, 64, 20))
		if err := base.Run(); err != nil {
			return nil, err
		}
		conf := s.conf()
		conf.Theta = 0.0001
		out, err := b.Squash(conf)
		if err != nil {
			return nil, err
		}
		rt, err := core.NewRuntime(out.Meta)
		if err != nil {
			return nil, err
		}
		m := vm.New(out.Image, input)
		m.AttachICache(vm.NewICache(cacheBytes, 64, 20))
		rt.Install(m)
		if err := m.Run(); err != nil {
			return nil, err
		}
		if string(m.Output) != string(base.Output) {
			return nil, fmt.Errorf("%s: output diverged under icache model", b.Spec.Name)
		}
		return []string{
			b.Spec.Name,
			fmt.Sprintf("%.4f", base.ICache.MissRate()),
			fmt.Sprintf("%.4f", m.ICache.MissRate()),
			f3(float64(m.Cycles) / float64(base.Cycles)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	t.Notes = append(t.Notes,
		"The decompressor flushes buffer lines after each fill (§2.1), but the squashed",
		"program's smaller live text competes for fewer cache lines.")
	return t, nil
}

// All runs every experiment and returns the rendered report.
func All(s *Suite) (string, error) {
	var sb strings.Builder
	sb.WriteString("# Profile-Guided Code Compression: experiment report\n\n")
	fmt.Fprintf(&sb, "Input scale: %.2f (1.0 = full configuration)\n\n", s.Scale)

	sb.WriteString(Table1(s).Render() + "\n")

	fig3, err := Fig3(s, []int{64, 128, 256, 512, 1024, 2048, 4096}, []float64{0, 0.0001, 0.01})
	if err != nil {
		return "", err
	}
	sb.WriteString(fig3.Render() + "\n")

	fig4, err := Fig4(s, ThetaSet)
	if err != nil {
		return "", err
	}
	sb.WriteString(fig4.Render() + "\n")

	sb.WriteString(Fig5(s).Render() + "\n")

	fig6, err := Fig6(s, ThetaSet)
	if err != nil {
		return "", err
	}
	sb.WriteString(fig6.Render() + "\n")

	f7a, f7b, err := Fig7(s, Fig7Thetas)
	if err != nil {
		return "", err
	}
	sb.WriteString(f7a.Render() + "\n")
	sb.WriteString(f7b.Render() + "\n")

	gamma, err := GammaStats(s)
	if err != nil {
		return "", err
	}
	sb.WriteString(gamma.Render() + "\n")

	bs, err := BufferSafeStats(s)
	if err != nil {
		return "", err
	}
	sb.WriteString(bs.Render() + "\n")

	stubs, err := StubStats(s)
	if err != nil {
		return "", err
	}
	sb.WriteString(stubs.Render() + "\n")

	path, err := Pathology(s)
	if err != nil {
		return "", err
	}
	sb.WriteString(path.Render() + "\n")

	interp, err := InterpComparison(s)
	if err != nil {
		return "", err
	}
	sb.WriteString(interp.Render() + "\n")

	icache, err := ICacheStats(s, 8*1024)
	if err != nil {
		return "", err
	}
	sb.WriteString(icache.Render() + "\n")
	return sb.String(), nil
}

// Names lists the available experiment identifiers for the CLI.
func Names() []string {
	out := []string{"table1", "fig3", "fig4", "fig5", "fig6", "fig7a", "fig7b", "gamma", "buffersafe", "stubs", "pathology", "interp", "icache", "all"}
	sort.Strings(out)
	return out
}

// Run executes one named experiment and returns the rendered result.
func Run(s *Suite, name string) (string, error) {
	switch name {
	case "table1":
		return Table1(s).Render(), nil
	case "fig3":
		t, err := Fig3(s, []int{64, 128, 256, 512, 1024, 2048, 4096}, []float64{0, 0.0001, 0.01})
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "fig4":
		t, err := Fig4(s, ThetaSet)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "fig5":
		return Fig5(s).Render(), nil
	case "fig6":
		t, err := Fig6(s, ThetaSet)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "fig7a":
		a, _, err := Fig7(s, Fig7Thetas)
		if err != nil {
			return "", err
		}
		return a.Render(), nil
	case "fig7b":
		_, b, err := Fig7(s, Fig7Thetas)
		if err != nil {
			return "", err
		}
		return b.Render(), nil
	case "gamma":
		t, err := GammaStats(s)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "buffersafe":
		t, err := BufferSafeStats(s)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "stubs":
		t, err := StubStats(s)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "pathology":
		t, err := Pathology(s)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "interp":
		t, err := InterpComparison(s)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "icache":
		t, err := ICacheStats(s, 8*1024)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "all":
		return All(s)
	default:
		return "", fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(Names(), ", "))
	}
}
