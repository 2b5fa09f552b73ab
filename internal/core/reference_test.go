package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/mediabench"
	"repro/internal/objfile"
	"repro/internal/profile"
	"repro/internal/race"
	"repro/internal/regions"
	"repro/internal/squeeze"
	"repro/internal/testprog"
	"repro/internal/vm"
)

// refLinkOutput is the reference for writeImage: it builds the output as a
// cfg.Program, lowers it with cfg.Lower, links it with objfile.Link and
// fills e.addr from the linked symbols by position. It takes an encoder
// whose layout has run and whose writeImage has not.
func refLinkOutput(e *encoder) (*objfile.Image, outputWords, error) {
	var words outputWords
	entries := e.findEntries()
	e.restoreStubs()

	out := &cfg.Program{
		Data:        append([]byte(nil), e.prog.Data...),
		DataSymbols: append([]objfile.Symbol(nil), e.prog.DataSymbols...),
		Entry:       e.prog.Entry,
		Refs:        slices.Clone(e.prog.Refs),
		DataRelocs:  slices.Clone(e.prog.DataRelocs),
	}
	if e.x.Entry != cfg.NoBlock {
		out.Entry = e.retarget(e.x.Entry)
	}
	// Surviving instructions keep their reference indices, so retargeting
	// the copied side table retargets every one of them.
	for k, t := range e.x.RefTo {
		if t >= 0 && e.stubOf[t] > 0 {
			out.Refs[k].Sym = e.retarget(t)
		}
	}
	for k, t := range e.x.RelocTo {
		if t >= 0 {
			out.DataRelocs[k].Sym = e.retarget(t)
		}
	}

	// place holds, for each block of the output program in layout order
	// (the order of Lower's text symbols), the slot of addr its linked
	// address fills.
	var place []int32
	for fi, f := range e.prog.Funcs {
		var kept []*cfg.Block
		for bi, b := range f.Blocks {
			i := e.x.FuncStart[fi] + int32(bi)
			if e.compressed[i] {
				continue
			}
			nb := &cfg.Block{Label: b.Label, Insts: b.Insts, JT: b.JT}
			if t := e.x.FallsTo[i]; t != cfg.NoBlock {
				nb.FallsTo = e.retarget(t)
			}
			kept = append(kept, nb)
			place = append(place, i)
		}
		if len(kept) > 0 {
			out.Funcs = append(out.Funcs, &cfg.Func{Name: kept[0].Label, Blocks: kept})
		}
	}

	for _, r := range e.res.Regions {
		for _, entry := range entries[r.ID] {
			off := e.blockOff[entry]
			if off >= 1<<16 || r.ID >= 1<<16 {
				return nil, words, fmt.Errorf("tag overflow: region %d offset %d", r.ID, off)
			}
			sb := &cfg.Block{
				Label: e.retarget(entry),
				Insts: []cfg.Inst{
					out.Refer(isa.Encode(isa.Br(isa.OpBSR, isa.RegAT, 0)), cfg.TargetBranch,
						symDecomp, int32(isa.RegAT*isa.WordSize)),
					cfg.RawWord(uint32(r.ID)<<16 | uint32(off)),
				},
			}
			out.Funcs = append(out.Funcs, &cfg.Func{Name: sb.Label, Blocks: []*cfg.Block{sb}})
			place = append(place, entry)
			words.entryStubs += regions.EntryStubWords
		}
	}

	for k, s := range e.rs {
		ra := s.call.RA()
		bsr := isa.Encode(isa.Br(isa.OpBSR, ra, 0))
		callInst := cfg.Inst{Word: s.call.Word}
		if !s.isJSR {
			target := e.prog.Target(s.call)
			if t := e.x.Target(s.call); t != cfg.NoBlock {
				target = e.retarget(t)
			}
			callInst = out.Refer(bsr, cfg.TargetBranch, target, 0)
		}
		sb := &cfg.Block{
			Label: s.label,
			Insts: []cfg.Inst{
				callInst,
				out.Refer(bsr, cfg.TargetBranch, symDecomp, int32(ra*isa.WordSize)),
				cfg.RawWord(uint32(s.region)<<16 | uint32(s.resume)),
			},
		}
		out.Funcs = append(out.Funcs, &cfg.Func{Name: sb.Label, Blocks: []*cfg.Block{sb}})
		place = append(place, e.slot(slotRS0+k))
		words.restoreStubs += 3
	}

	reserved := func(name string, n, slot int) {
		insts := make([]cfg.Inst, n)
		for i := range insts {
			insts[i] = cfg.RawWord(isa.Sentinel)
		}
		out.Funcs = append(out.Funcs, &cfg.Func{Name: name, Blocks: []*cfg.Block{{Label: name, Insts: insts}}})
		place = append(place, e.slot(slot))
	}
	words.stubArea = e.stubAreaWords()
	reserved(symDecomp, DecompWords, slotDecomp)
	reserved(symStubArea, words.stubArea, slotStubArea)
	reserved(symRtBuf, e.conf.Regions.K/isa.WordSize, slotRtBuf)

	obj, err := cfg.Lower(out)
	if err != nil {
		return nil, words, err
	}
	im, err := objfile.Link(out.Entry, obj)
	if err != nil {
		return nil, words, err
	}
	nd := len(out.DataSymbols)
	if len(im.Symbols) != nd+len(place) {
		return nil, words, fmt.Errorf("linked %d symbols for %d data symbols and %d blocks", len(im.Symbols), nd, len(place))
	}
	e.addr = make([]uint32, int(e.slot(slotRS0))+len(e.rs))
	for j, s := range im.Symbols[nd:] {
		e.addr[place[j]] = s.Addr()
	}
	return im, words, nil
}

// checkWriterOracle squashes obj up to the output image twice, with
// writeImage and with refLinkOutput, and requires the two to fail together
// or to give equal images, stub sizes and addresses. It returns the error
// that stopped the squash before or while writing the image, or nil.
func checkWriterOracle(t testing.TB, obj *objfile.Object, counts profile.Counts, conf Config) error {
	t.Helper()
	e, _, err := newEncoder(obj, counts, conf, nil, nil)
	if err != nil {
		return err
	}
	if err := e.layout(); err != nil {
		return err
	}
	ref := *e
	im, words, err := e.writeImage()
	rim, rwords, rerr := refLinkOutput(&ref)
	if (err == nil) != (rerr == nil) {
		t.Fatalf("writeImage error %v, reference error %v", err, rerr)
	}
	if err != nil {
		return err
	}
	switch {
	case !slices.Equal(im.Text, rim.Text):
		t.Fatalf("text differs from the reference at word %d of %d/%d", firstDiff(im.Text, rim.Text), len(im.Text), len(rim.Text))
	case !slices.Equal(im.Data, rim.Data):
		t.Fatalf("data differs from the reference at byte %d", firstDiff(im.Data, rim.Data))
	case !slices.Equal(im.Symbols, rim.Symbols):
		i := firstDiff(im.Symbols, rim.Symbols)
		t.Fatalf("symbol %d differs from the reference: %+v vs %+v", i, at(im.Symbols, i), at(rim.Symbols, i))
	case !slices.Equal(im.Relocs, rim.Relocs):
		i := firstDiff(im.Relocs, rim.Relocs)
		t.Fatalf("relocation %d differs from the reference: %+v vs %+v", i, at(im.Relocs, i), at(rim.Relocs, i))
	case im.Entry != rim.Entry:
		t.Fatalf("entry %#x, reference %#x", im.Entry, rim.Entry)
	case !slices.Equal(im.Meta, rim.Meta):
		t.Fatal("metadata differs from the reference")
	case words != rwords:
		t.Fatalf("stub words %+v, reference %+v", words, rwords)
	case !slices.Equal(e.addr, ref.addr):
		t.Fatalf("address slot %d differs from the reference", firstDiff(e.addr, ref.addr))
	}
	return nil
}

// firstDiff is the first index at which a and b differ, or the shorter
// length.
func firstDiff[T comparable](a, b []T) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// at returns s[i], or the zero value past its end.
func at[T any](s []T, i int) T {
	var zero T
	if i < len(s) {
		return s[i]
	}
	return zero
}

// oracleConfigs are TestImageDigestsGolden's ten squash configurations.
func oracleConfigs() map[string]Config {
	base := func(theta float64, edit func(*Config)) Config {
		c := DefaultConfig()
		c.Theta = theta
		if edit != nil {
			edit(&c)
		}
		return c
	}
	return map[string]Config{
		"theta5e-5":     base(5e-5, nil),
		"theta1e-3":     base(1e-3, nil),
		"lz":            base(5e-5, func(c *Config) { c.Coder = CoderLZ }),
		"mtf":           base(5e-5, func(c *Config) { c.MTF = true }),
		"interpret":     base(5e-5, func(c *Config) { c.Interpret = true }),
		"lz-interpret":  base(5e-5, func(c *Config) { c.Coder, c.Interpret = CoderLZ, true }),
		"loopaware":     base(5e-5, func(c *Config) { c.Regions.Strategy = regions.StrategyLoopAware }),
		"ctstubs":       base(5e-5, func(c *Config) { c.CompileTimeRestoreStubs = true }),
		"nobufsafe":     base(5e-5, func(c *Config) { c.BufferSafe = false }),
		"mtf-theta1e-3": base(1e-3, func(c *Config) { c.MTF = true }),
	}
}

// prepareSqueezed squeezes the named MediaBench program and profiles it on
// its profiling input scaled by scale, as the experiments' quick suite does.
func prepareSqueezed(t *testing.T, spec mediabench.Spec, scale float64) (*objfile.Object, profile.Counts) {
	t.Helper()
	spec.ProfBytes = max(1, int(float64(spec.ProfBytes)*scale))
	obj, err := asm.Assemble(spec.Generate())
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(obj, "main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := squeeze.Run(p); err != nil {
		t.Fatal(err)
	}
	sq, err := cfg.Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	im, err := objfile.Link("main", sq)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(im, spec.ProfilingInput())
	m.EnableProfile()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return sq, m.Profile
}

// addendProgram addresses data past 32 KiB, through la pairs with and
// without addends and through a data word with an addend.
const addendProgram = `
        .text
        .func main
        lda  sp, -16(sp)
        stw  ra, 0(sp)
        la   t0, far
        ldw  a0, 0(t0)
        sys  putc
        la   t1, ptr
        ldw  t1, 0(t1)
        ldw  a0, 0(t1)
        sys  putc
        sys  getc
        blt  v0, done
        bsr  ra, cold
        mov  v0, a0
        sys  putc
done:   ldw  ra, 0(sp)
        lda  sp, 16(sp)
        clr  a0
        sys  halt

        .func cold
        la   t2, far+4
        ldw  v0, 0(t2)
        ret

        .data
pad:    .space 40000
far:    .word 65, 66
ptr:    .word far+4
`

// TestWriteImageMatchesLinkOracle holds the direct image writer to the
// Lower-and-Link reference on the squeezed MediaBench programs in the
// golden-digest configurations at one and four workers, on random programs
// at FuzzSquash's thresholds and buffer sizes, and on the name collisions
// both must reject.
func TestWriteImageMatchesLinkOracle(t *testing.T) {
	confs := oracleConfigs()
	names := make([]string, 0, len(confs))
	for name := range confs {
		names = append(names, name)
	}
	slices.Sort(names)
	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 12; seed++ {
			obj, _, counts := prepare(t, testprog.Random(seed), []byte("oracle input 0123"))
			for _, theta := range []float64{0, 0.001, 0.5, 1} {
				for _, k := range []int{64, 96, 512} {
					for _, ctrs := range []bool{false, true} {
						conf := DefaultConfig()
						conf.Theta, conf.Regions.K, conf.CompileTimeRestoreStubs = theta, k, ctrs
						checkWriterOracle(t, obj, counts, conf)
					}
				}
			}
		}
	})
	t.Run("addends", func(t *testing.T) {
		// Data past 32 KiB, so an la's high half carries from its low
		// half, and relocations with addends in code and in data.
		obj, _, counts := prepare(t, addendProgram, nil)
		for _, theta := range []float64{0, 1} {
			conf := DefaultConfig()
			conf.Theta = theta
			if err := checkWriterOracle(t, obj, counts, conf); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Run("collisions", func(t *testing.T) {
		const anchor = "        bne  t1, digit\n"
		for _, label := range []string{symDecomp, symStubArea, symRtBuf, stubPrefix + "coldsel", "rs$0"} {
			obj, _, counts := prepare(t, strings.Replace(testProgram, anchor, anchor+label+":\n", 1), profInput)
			for _, ctrs := range []bool{false, true} {
				conf := DefaultConfig()
				conf.Regions.K, conf.CompileTimeRestoreStubs = 96, ctrs
				checkWriterOracle(t, obj, counts, conf)
			}
		}
	})
	t.Run("mediabench", func(t *testing.T) {
		if race.Enabled {
			t.Skip("220 partial squashes; the race detector makes it minutes")
		}
		for _, spec := range mediabench.Specs() {
			obj, counts := prepareSqueezed(t, spec, 0.05)
			for _, name := range names {
				for _, workers := range []int{1, 4} {
					conf := confs[name]
					conf.Workers = workers
					if err := checkWriterOracle(t, obj, counts, conf); err != nil {
						t.Fatalf("%s %s workers=%d: %v", spec.Name, name, workers, err)
					}
				}
			}
		}
	})
}

// TestImageWriterRejectsBadBranches: a branch whose target lies past the
// 21-bit displacement, or off a word boundary, fails as objfile.Link fails
// it; the largest forward displacement is written.
func TestImageWriterRejectsBadBranches(t *testing.T) {
	br := isa.Encode(isa.Br(isa.OpBR, isa.RegZero, 0))
	w := imageWriter{&objfile.Image{}}
	for _, tc := range []struct {
		target uint32
		ok     bool
	}{
		{objfile.TextBase + 4 + (1<<20-1)*4, true},
		{objfile.TextBase + 4 + (1<<20)*4, false},
		{objfile.TextBase + 2, false},
	} {
		w.im.Text = w.im.Text[:0]
		if err := w.reloc(br, objfile.RelBrDisp21, "t", tc.target, 0); (err == nil) != tc.ok {
			t.Errorf("target %#x: error %v, want ok=%v", tc.target, err, tc.ok)
		}
	}
}

// TestDataSymbolNamedLikeBlockFailsSquash: a data symbol that shares its
// name with a block fails the squash, the block surviving (main) or
// compressed (cs0, a jump-table target whose label leaves the output),
// since a reference by that name need not resolve to the same place in the
// input and the output.
func TestDataSymbolNamedLikeBlockFailsSquash(t *testing.T) {
	obj, _, counts := prepare(t, testProgram, profInput)
	for _, name := range []string{"main", "cs0"} {
		o := *obj
		o.Symbols = append(slices.Clone(obj.Symbols), objfile.Symbol{Name: name, Section: objfile.SecData, Kind: objfile.SymObject})
		conf := DefaultConfig()
		conf.Regions.K = 96
		if _, err := Squash(&o, counts, conf); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("data symbol %s: squash error %v, want one naming it", name, err)
		}
	}
}
