package repro_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benchmarks for the design choices DESIGN.md calls out. Each
// bench reports its headline quantity via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's numbers (at a reduced input scale; run
// cmd/experiments -scale 1.0 for the full-size report).

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/huffman"
	"repro/internal/isa"
	"repro/internal/regions"
	"repro/internal/streamcomp"
	"repro/internal/vm"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
	suiteErr  error
)

// benchSuite prepares the benchmark programs once (generate, assemble,
// squeeze, link, profile) at a reduced input scale. Preparation is served
// from the content-keyed cache in .prepcache when programs and inputs are
// unchanged, so repeated benchmark runs start measuring immediately.
func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = experiments.LoadCachedObs(0.05, 0, ".prepcache", nil)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

// BenchmarkTable1Squeeze regenerates Table 1: squeeze's size reduction.
func BenchmarkTable1Squeeze(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		tab := experiments.Table1(s)
		if len(tab.Rows) != 11 {
			b.Fatal("wrong row count")
		}
	}
	var sum float64
	for _, bench := range s.Benches {
		sum += bench.SqueezeStats.Reduction()
	}
	b.ReportMetric(100*sum/float64(len(s.Benches)), "%mean-squeeze-reduction")
}

// BenchmarkFig3BufferSweep regenerates Figure 3: squashed size versus the
// runtime-buffer bound K.
func BenchmarkFig3BufferSweep(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(s, []int{128, 512, 2048}, []float64{0.0001}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4ColdCode regenerates Figure 4: cold and compressible code
// fractions over the θ sweep.
func BenchmarkFig4ColdCode(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(s, []float64{0, 0.0001, 0.01, 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6SizeReduction regenerates Figure 6: per-program code size
// reduction at the paper's thresholds.
func BenchmarkFig6SizeReduction(b *testing.B) {
	s := benchSuite(b)
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Fig6(s, []float64{0, 0.00005, 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = tab
}

// BenchmarkFig7aSize regenerates Figure 7(a): code size relative to the
// squeezed baseline at low thresholds.
func BenchmarkFig7aSize(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig7(s, []float64{0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7bTime regenerates Figure 7(b): execution time relative to
// the squeezed baseline (squashed binaries run on the timing inputs).
func BenchmarkFig7bTime(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig7(s, experiments.Fig7Thetas); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGammaCompressionRatio regenerates the §3 statistic: the achieved
// split-stream compression factor γ at θ=1.
func BenchmarkGammaCompressionRatio(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.GammaStats(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBufferSafeStats regenerates the §6.1 statistic: buffer-safe
// callees among calls from compressed code.
func BenchmarkBufferSafeStats(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BufferSafeStats(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStubStats regenerates the §2.2 statistics: maximum live restore
// stubs and the compile-time restore-stub cost.
func BenchmarkStubStats(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.StubStats(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathology regenerates the §7 caution: profile-cold code executed
// hot by the timing input.
func BenchmarkPathology(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Pathology(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks -------------------------------------------------

// squashAll squashes every benchmark with the given config tweak and
// reports the mean size reduction.
func squashAll(b *testing.B, mod func(*core.Config)) float64 {
	s := benchSuite(b)
	var sum float64
	for _, bench := range s.Benches {
		conf := core.DefaultConfig()
		conf.Theta = 0.0001
		if mod != nil {
			mod(&conf)
		}
		out, err := bench.Squash(conf)
		if err != nil {
			b.Fatal(err)
		}
		sum += out.Stats.Reduction()
	}
	return sum / float64(len(s.Benches))
}

// BenchmarkAblationPacking measures the effect of §4's region packing.
func BenchmarkAblationPacking(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = squashAll(b, nil)
		without = squashAll(b, func(c *core.Config) { c.Regions.Pack = false })
	}
	b.ReportMetric(100*with, "%reduction-packed")
	b.ReportMetric(100*without, "%reduction-unpacked")
}

// BenchmarkAblationBufferSafe measures §6.1's call-expansion savings.
func BenchmarkAblationBufferSafe(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = squashAll(b, nil)
		without = squashAll(b, func(c *core.Config) { c.BufferSafe = false })
	}
	b.ReportMetric(100*with, "%reduction-buffersafe")
	b.ReportMetric(100*without, "%reduction-without")
}

// BenchmarkAblationUnswitch measures §6.2's jump-table unswitching.
func BenchmarkAblationUnswitch(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = squashAll(b, nil)
		without = squashAll(b, func(c *core.Config) { c.Unswitch = false })
	}
	b.ReportMetric(100*with, "%reduction-unswitched")
	b.ReportMetric(100*without, "%reduction-without")
}

// BenchmarkAblationMTF measures the §3 move-to-front variant.
func BenchmarkAblationMTF(b *testing.B) {
	var plain, mtf float64
	for i := 0; i < b.N; i++ {
		plain = squashAll(b, nil)
		mtf = squashAll(b, func(c *core.Config) { c.MTF = true })
	}
	b.ReportMetric(100*plain, "%reduction-plain")
	b.ReportMetric(100*mtf, "%reduction-mtf")
}

// BenchmarkAblationRestoreStubs compares run-time restore stub creation
// against the rejected compile-time alternative (§2.2).
func BenchmarkAblationRestoreStubs(b *testing.B) {
	var runtime, compileTime float64
	for i := 0; i < b.N; i++ {
		runtime = squashAll(b, nil)
		compileTime = squashAll(b, func(c *core.Config) { c.CompileTimeRestoreStubs = true })
	}
	b.ReportMetric(100*runtime, "%reduction-runtime-stubs")
	b.ReportMetric(100*compileTime, "%reduction-compiletime-stubs")
}

// BenchmarkAblationCostModel sweeps the decompression cost constants to
// show Figure 7(b)'s shape is not an artifact of the defaults.
func BenchmarkAblationCostModel(b *testing.B) {
	s := benchSuite(b)
	bench := s.Benches[0]
	conf := core.DefaultConfig()
	conf.Theta = 0.01
	out, err := bench.Squash(conf)
	if err != nil {
		b.Fatal(err)
	}
	baseOut, baseCycles, err := bench.BaselineTiming()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, scale := range []uint64{1, 4} {
			rt, err := core.NewRuntime(out.Meta)
			if err != nil {
				b.Fatal(err)
			}
			m := vm.New(out.Image, bench.Spec.TimingInput())
			m.Cost.DecompPerBit *= scale
			m.Cost.DecompPerInst *= scale
			rt.Install(m)
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
			if string(m.Output) != string(baseOut) {
				b.Fatal("output diverged")
			}
			_ = baseCycles
		}
	}
}

// --- Micro-benchmarks of the compression substrate ------------------------

// BenchmarkHuffmanDecode measures the paper's DECODE() loop.
func BenchmarkHuffmanDecode(b *testing.B) {
	freq := map[uint32]uint64{}
	for i := uint32(0); i < 64; i++ {
		freq[i] = uint64(1 + i*i)
	}
	c := huffman.Build(freq)
	var w huffman.BitWriter
	var vals []uint32
	for i := uint32(0); i < 64; i++ {
		for j := uint64(0); j < freq[i]%17+1; j++ {
			vals = append(vals, i)
			if err := c.Encode(&w, i); err != nil {
				b.Fatal(err)
			}
		}
	}
	blob := w.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := huffman.NewBitReader(blob)
		for range vals {
			if _, err := c.Decode(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(int64(len(vals)))
}

// BenchmarkStreamCompress measures split-stream compression throughput.
func BenchmarkStreamCompress(b *testing.B) {
	seq := isa.RandInsts(42, 4096)
	var clean []isa.Inst
	for _, in := range seq {
		if in.Format != isa.FormatIllegal {
			clean = append(clean, in)
		}
	}
	comp := streamcomp.Train([][]isa.Inst{clean}, streamcomp.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var w huffman.BitWriter
		if err := comp.Compress(&w, clean); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(4 * len(clean)))
}

// BenchmarkStreamDecompress measures the decompressor's instruction
// reconstruction rate — the quantity the runtime cost model charges for.
func BenchmarkStreamDecompress(b *testing.B) {
	seq := isa.RandInsts(43, 4096)
	var clean []isa.Inst
	for _, in := range seq {
		if in.Format != isa.FormatIllegal {
			clean = append(clean, in)
		}
	}
	comp := streamcomp.Train([][]isa.Inst{clean}, streamcomp.Options{})
	var w huffman.BitWriter
	if err := comp.Compress(&w, clean); err != nil {
		b.Fatal(err)
	}
	blob := w.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if _, err := comp.Decompress(blob, 0, func(isa.Inst) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != len(clean) {
			b.Fatal("short decode")
		}
	}
	b.SetBytes(int64(4 * len(clean)))
}

// BenchmarkVMExecution measures the simulator's raw interpretation rate.
func BenchmarkVMExecution(b *testing.B) {
	s := benchSuite(b)
	bench := s.Benches[0]
	input := bench.Spec.TimingInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := vm.New(bench.SqImage, input)
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(m.Instructions))
	}
}

// BenchmarkAblationLoopAware compares the paper's DFS region construction
// against the loop-aware strategy (§9 future work) on the pathological
// input that drives profile-cold loops: the loop-aware partition should
// decompress dramatically less when the loop would otherwise split.
func BenchmarkAblationLoopAware(b *testing.B) {
	s := benchSuite(b)
	var target *experiments.Bench
	for _, bench := range s.Benches {
		if bench.Spec.Name == "mpeg2dec" {
			target = bench
		}
	}
	if target == nil {
		b.Fatal("mpeg2dec missing")
	}
	input := target.Spec.PathologyInput()
	run := func(strategy regions.Strategy) (warnings int, cycles uint64) {
		conf := core.DefaultConfig()
		conf.Theta = 0.0001
		conf.Regions.K = 512
		conf.Regions.Strategy = strategy
		conf.StubCapacity = 64
		out, err := target.Squash(conf)
		if err != nil {
			b.Fatal(err)
		}
		m, _, err := experiments.RunSquashed(out, input, nil)
		if err != nil {
			b.Fatal(err)
		}
		return len(out.Stats.LoopSplitWarnings), m.Cycles
	}
	var dfsWarn, loopWarn int
	var dfsCyc, loopCyc uint64
	for i := 0; i < b.N; i++ {
		dfsWarn, dfsCyc = run(regions.StrategyDFS)
		loopWarn, loopCyc = run(regions.StrategyLoopAware)
	}
	// Loop-aware construction eliminates split loops (its goal); whether it
	// wins on time depends on how often the surrounding code transitions
	// into the loop region — an honest trade-off, reported as-is.
	b.ReportMetric(float64(dfsWarn), "split-loops-dfs")
	b.ReportMetric(float64(loopWarn), "split-loops-loopaware")
	b.ReportMetric(float64(loopCyc)/float64(dfsCyc), "cycles-ratio-loopaware/dfs")
}

// BenchmarkInterpComparison regenerates the §8 comparison: decompression
// versus interpret-in-place on the same compressed regions.
func BenchmarkInterpComparison(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.InterpComparison(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkICacheStats measures instruction-cache behaviour of squeezed vs
// squashed binaries on an embedded-scale cache.
func BenchmarkICacheStats(b *testing.B) {
	s := benchSuite(b)
	small := &experiments.Suite{Benches: s.Benches[:3], Scale: s.Scale}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ICacheStats(small, 8*1024); err != nil {
			b.Fatal(err)
		}
	}
}

// squashMatrixBench runs the full benchmark × θ squash matrix at a fixed
// worker count. The two variants below share it so that
//
//	go test -bench=BenchmarkSquash -benchtime=1x
//
// reports the serial-versus-parallel wall-clock of the identical workload;
// the determinism tests guarantee both produce the same images.
func squashMatrixBench(b *testing.B, workers int) {
	s := benchSuite(b)
	thetas := []float64{0, 0.0001, 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs, err := experiments.SquashMatrix(s, thetas, workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(outs) != len(s.Benches)*len(thetas) {
			b.Fatalf("matrix has %d cells", len(outs))
		}
	}
}

// BenchmarkSquashMatrixWorkers1 is the serial baseline for the parallel
// pipeline: every matrix cell and every squash phase runs on one goroutine.
func BenchmarkSquashMatrixWorkers1(b *testing.B) { squashMatrixBench(b, 1) }

// BenchmarkSquashMatrixParallel runs the same matrix with one worker per
// CPU at both levels (matrix cells and per-cell squash phases).
func BenchmarkSquashMatrixParallel(b *testing.B) { squashMatrixBench(b, 0) }
