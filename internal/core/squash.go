package core

import (
	"fmt"

	"repro/internal/buffersafe"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/regions"
	"repro/internal/unswitch"
)

// Config parameterizes a squash run.
type Config struct {
	// Theta is the cold-code threshold θ (§5): cold code may account for at
	// most this fraction of the profiled dynamic instruction count.
	Theta float64
	// Regions configures region formation (§4): buffer bound K, assumed
	// compression factor γ, packing.
	Regions regions.Config
	// BufferSafe enables the §6.1 analysis: calls from compressed code to
	// provably buffer-safe callees are left unchanged.
	BufferSafe bool
	// Unswitch enables §6.2: cold jump-table dispatches are rewritten to
	// conditional branches so their blocks become compressible.
	Unswitch bool
	// MTF enables the move-to-front variant of the stream coder (§3).
	// Ignored unless Coder is CoderStream.
	MTF bool
	// Coder selects the region coder: CoderStream (the default, the paper's
	// split-stream scheme) or CoderLZ (the dictionary coder, §8/[19]). The
	// choice is recorded in the image metadata so the runtime decodes with
	// the matching tables.
	Coder int
	// Interpret selects the §8 alternative: compressed regions are
	// *interpreted in place* instead of decompressed into the runtime
	// buffer (Fraser/Proebsting-style executable compressed code). It
	// trades the buffer away but pays a per-instruction decode cost at
	// every execution and an index (4 bytes per enterable boundary: block
	// starts and post-call resume points). Buffer-safe call elision is
	// disabled:
	// interpreted code has no materialized return addresses.
	Interpret bool
	// CompileTimeRestoreStubs switches to the rejected §2.2 alternative of
	// materializing every restore stub statically, for the ablation that
	// reproduces the paper's 13%–27% never-compressed-code overhead numbers.
	CompileTimeRestoreStubs bool
	// StubCapacity is the number of runtime restore-stub slots. The paper
	// observed at most 9 live stubs even at θ = 0.01.
	StubCapacity int
	// Workers bounds the goroutines the squash pipeline may use for its
	// per-function and per-region phases (AT scan, buffer-safe analysis,
	// region layout, sequence building, stream compression). <= 0 means
	// one per CPU; 1 forces a fully serial run. The output image is
	// byte-identical at every worker count — results are always merged in
	// deterministic function/region order.
	Workers int
}

// DefaultConfig mirrors the paper's operating point.
func DefaultConfig() Config {
	return Config{
		Theta:        0.0,
		Regions:      regions.DefaultConfig(),
		BufferSafe:   true,
		Unswitch:     true,
		StubCapacity: 16,
	}
}

// Footprint itemizes the squashed program's memory cost, mirroring §2.1:
// "the latter must take into account the space occupied by the stubs, the
// decompressor, the function offset table, the compressed code, the runtime
// buffer, and the never-compressed original program code."
type Footprint struct {
	NeverCompressed    int // bytes of surviving program code
	EntryStubs         int // bytes of entry stubs
	RestoreStubsStatic int // bytes of compile-time restore stubs (ablation mode)
	Decompressor       int // bytes reserved for the decompressor/interpreter
	InterpIndex        int // bytes of branch-target index (interpret mode only)
	OffsetTable        int // bytes of the function offset table
	CompressedCode     int // bytes of the compressed blob
	CodeTables         int // bytes of the per-stream Huffman tables
	StubArea           int // bytes of the runtime restore-stub area
	RuntimeBuffer      int // bytes of the runtime buffer (K)
}

// Total sums all components.
func (f Footprint) Total() int {
	return f.NeverCompressed + f.EntryStubs + f.RestoreStubsStatic + f.Decompressor +
		f.InterpIndex + f.OffsetTable + f.CompressedCode + f.CodeTables +
		f.StubArea + f.RuntimeBuffer
}

// Stats summarizes a squash run.
type Stats struct {
	InputBytes             int // squeezed text size (the comparison baseline)
	SquashedBytes          int // Footprint.Total()
	RegionCount            int
	EntryStubCount         int
	StaticRestoreStubCount int

	ColdInsts         int
	CompressibleInsts int
	TotalInsts        int

	// CompressionRatio is the achieved γ: compressed bytes (blob + tables)
	// over the original bytes of the compressed instructions.
	CompressionRatio float64

	// BufferSafeCalls / CallsInRegions reproduce the §6.1 statistic.
	BufferSafeCalls int
	CallsInRegions  int

	Unswitched          int
	TableBytesReclaimed int

	// LoopSplitWarnings lists loops whose blocks the partitioner placed in
	// different regions (or half-compressed): if the timing input drives
	// such a loop, every iteration decompresses a region — the pathology
	// the paper reports for mpeg2dec at K=128 and for SPECint li (§7).
	LoopSplitWarnings []string
}

// Reduction reports the code size reduction relative to the input.
func (s *Stats) Reduction() float64 {
	if s.InputBytes == 0 {
		return 0
	}
	return 1 - float64(s.SquashedBytes)/float64(s.InputBytes)
}

// Output is the result of Squash.
type Output struct {
	Image *objfile.Image
	Meta  *Meta
	Foot  Footprint
	Stats Stats
	// RegionLayouts holds, per region, the buffer word offset of every
	// block in layout order (diagnostics and experiment reporting).
	RegionLayouts [][]int
}

// checkTagBounds rejects configurations whose runtime tags cannot be packed.
// Tags pack (region<<16 | resume) into one word (§2.3): the region index and
// the buffer word offset each get 16 bits. CreateStub computes resume
// offsets up to K/WordSize at run time, and region indices run to the
// partition count, so either bound overflowing would silently corrupt tags
// — the truncated tag names a *different* region/offset and the runtime
// resumes in the wrong place. Both are hard errors at squash time instead.
func checkTagBounds(k, nregions int) error {
	if maxResume := k / isa.WordSize; maxResume > 0xFFFF {
		return fmt.Errorf("buffer bound K=%d allows resume offsets up to %d, exceeding the 16-bit tag field (max K is %d)",
			k, maxResume, 0xFFFF*isa.WordSize)
	}
	if nregions > 1<<16 {
		return fmt.Errorf("%d regions exceed the 16-bit tag field (max %d)", nregions, 1<<16)
	}
	return nil
}

// Squash rewrites a squeezed program: cold regions are removed from the
// code stream, compressed with the split-stream coder, and replaced by
// entry stubs that invoke the runtime decompressor.
//
// The input object must retain full symbol and relocation information and
// must not use the AT register (R28), which the rewriter reserves for entry
// stub linkage, following the Alpha convention that AT belongs to tools.
func Squash(obj *objfile.Object, counts profile.Counts, conf Config) (*Output, error) {
	return SquashObs(obj, counts, conf, nil)
}

// checkAT refuses a program that reads or writes AT (r28), which the entry
// stubs clobber, naming the first such block in function order. System
// calls are exempt: setjmp/longjmp capture the whole register file,
// including AT, but nothing observes AT's value, so stub clobbers remain
// invisible.
func checkAT(p *cfg.Program, workers int) error {
	const atFields = isa.RegAT<<21 | isa.RegAT<<16 | isa.RegAT
	return parallel.ForEach(len(p.Funcs), workers, func(fi int) error {
		for _, b := range p.Funcs[fi].Blocks {
			for _, in := range b.Insts {
				// Outside a system call only a word with a register field
				// holding AT can touch AT, so almost every word is answered
				// from its bits, before the format lookup; x has a zero
				// field where the word's holds AT.
				x := in.Word ^ atFields
				if (x&(31<<21) == 0 || x&(31<<16) == 0 || x&31 == 0) &&
					in.Format() != isa.FormatPal && cfg.TouchesReg(in, isa.RegAT) {
					return fmt.Errorf("squash: block %s uses reserved register AT (r28)", b.Label)
				}
			}
		}
		return nil
	})
}

// SquashObs is Squash with telemetry: pipeline stages record spans on
// rec's tracer and the run's totals land in rec's metrics registry. A
// nil rec degrades to plain Squash. The recorder deliberately lives
// outside Config — Config travels in squashd's wire protocol and keys
// its result cache, so attaching host-side state there would perturb
// both. Telemetry on or off, the output image is byte-identical; the
// equivalence tests compare digests to enforce that.
func SquashObs(obj *objfile.Object, counts profile.Counts, conf Config, rec *obs.Recorder) (*Output, error) {
	root := rec.Span("squash",
		"theta", conf.Theta, "K", conf.Regions.K, "coder", conf.Coder, "workers", conf.Workers)
	defer root.End()
	enc, stats, err := newEncoder(obj, counts, conf, rec, root)
	if err != nil {
		return nil, err
	}
	out, err := enc.run(stats)
	if err != nil {
		return nil, fmt.Errorf("squash: %w", err)
	}
	rec.Counter("squash_runs_total").Inc()
	rec.Counter("squash_regions_total").Add(uint64(out.Stats.RegionCount))
	rec.Counter("squash_input_bytes_total").Add(uint64(out.Stats.InputBytes))
	rec.Counter("squash_output_bytes_total").Add(uint64(out.Stats.SquashedBytes))
	return out, nil
}

// newEncoder runs the squash phases before the encoder's, as spans under
// root: it lifts and profiles the object, selects and partitions the cold
// regions, and finds the buffer-safe functions. rec and root may be nil.
func newEncoder(obj *objfile.Object, counts profile.Counts, conf Config, rec *obs.Recorder, root *obs.Span) (*encoder, *Stats, error) {
	if conf.StubCapacity <= 0 {
		conf.StubCapacity = 16
	}
	sp := root.Child("cfg.decode")
	p, err := cfg.BuildWorkers(obj, "main", conf.Workers)
	if err != nil {
		return nil, nil, fmt.Errorf("squash: %w", err)
	}
	if err := p.AttachProfile(counts); err != nil {
		return nil, nil, fmt.Errorf("squash: %w", err)
	}
	if err := checkAT(p, conf.Workers); err != nil {
		return nil, nil, err
	}
	sp.End()

	stats := Stats{InputBytes: len(obj.Text) * isa.WordSize}

	sp = root.Child("region.select")
	if conf.Unswitch {
		// Unswitching only rewrites the blocks it accepts and never asks
		// about the ladder blocks it adds, so the threshold over the
		// original blocks classifies everything it sees.
		ust, err := unswitch.Run(p, profile.ColdThreshold(p, conf.Theta).IsCold)
		if err != nil {
			return nil, nil, fmt.Errorf("squash: %w", err)
		}
		stats.Unswitched = ust.Unswitched
		stats.TableBytesReclaimed = ust.TableBytesReclaimed
	}
	// Number the final program's blocks once; every later analysis reads
	// slices indexed by block number. Indexing validates the program, so
	// unswitching's rewrite is checked here.
	x, err := cfg.NewIndex(p, conf.Workers)
	if err != nil {
		return nil, nil, fmt.Errorf("squash: %w", err)
	}
	conf.Regions.Workers = conf.Workers
	res, err := regions.PartitionIndex(x, profile.ColdBlocks(x, conf.Theta), conf.Regions)
	if err != nil {
		return nil, nil, fmt.Errorf("squash: %w", err)
	}
	if err := checkTagBounds(conf.Regions.K, len(res.Regions)); err != nil {
		return nil, nil, fmt.Errorf("squash: %w", err)
	}
	stats.ColdInsts = res.ColdInsts
	stats.CompressibleInsts = res.CompressibleInsts
	stats.TotalInsts = res.TotalInsts
	stats.RegionCount = len(res.Regions)

	compressed := make([]bool, len(x.Blocks))
	for i, id := range res.RegionOf {
		compressed[i] = id >= 0
	}
	// §7 diagnostic: warn when a loop's back edge crosses a region
	// boundary (or leaves compressed code entirely), since repeated
	// decompression per iteration follows if the loop ever runs hot.
	for _, e := range x.BackEdges() {
		fromR, toR := res.RegionOf[e.From], res.RegionOf[e.To]
		fromIn, toIn := fromR >= 0, toR >= 0
		from, to := x.Blocks[e.From].Label, x.Blocks[e.To].Label
		switch {
		case fromIn && toIn && fromR != toR:
			stats.LoopSplitWarnings = append(stats.LoopSplitWarnings,
				fmt.Sprintf("loop %s->%s split across regions %d and %d", from, to, fromR, toR))
		case fromIn != toIn:
			stats.LoopSplitWarnings = append(stats.LoopSplitWarnings,
				fmt.Sprintf("loop %s->%s half compressed (latch in region: %v, header in region: %v)",
					from, to, fromIn, toIn))
		}
	}
	sp.SetArg("regions", len(res.Regions))
	sp.SetArg("cold_insts", res.ColdInsts)
	sp.End()

	if conf.Interpret {
		// Interpreted code cannot be returned into natively; every call
		// must go through the stub machinery.
		conf.BufferSafe = false
	}
	sp = root.Child("buffersafe")
	bs := &buffersafe.Result{Safe: make([]bool, len(p.Funcs))} // nothing is safe
	if conf.BufferSafe {
		bs = buffersafe.AnalyzeWorkers(x, compressed, conf.Workers)
	}
	stats.BufferSafeCalls, stats.CallsInRegions = buffersafe.CallSiteStats(x, compressed, bs)
	sp.End()

	return &encoder{
		conf:       conf,
		prog:       p,
		x:          x,
		res:        res,
		compressed: compressed,
		safe:       bs,
		rec:        rec,
		span:       root,
	}, &stats, nil
}
