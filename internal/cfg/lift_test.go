package cfg_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mediabench"
	"repro/internal/objfile"
	"repro/internal/profile"
	"repro/internal/squeeze"
	"repro/internal/testprog"
)

// liftProgram exercises every lift path the malformed cases below perturb:
// a jump-table dispatch, an la+jsr call, an la with an addend, a function
// pointer in data and a block boundary at every kind of control transfer.
const liftProgram = `
        .text
        .func main
        lda  sp, -16(sp)
        stw  ra, 0(sp)
loop:   sys  getc
        blt  v0, done
        sub  v0, 48, t0
        cmpult t0, 3, t1
        beq  t1, bad
        sll  t0, 2, t1
        la   t2, table
        add  t2, t1, t2
        ldw  t3, 0(t2)
        jmp  (t3)
case0:  li   a0, 122
        br   out
case1:  la   pv, helper
        jsr  ra, (pv)
        mov  v0, a0
        br   out
bad:    li   a0, 63
out:    sys  putc
        br   loop
done:   la   t4, table+8
        ldw  ra, 0(sp)
        lda  sp, 16(sp)
        clr  a0
        sys  halt
        .func helper
        li   v0, 116
        ret
        .data
table:  .word case0, case1, bad
fptr:   .word helper
`

func assemble(tb testing.TB, src string) *objfile.Object {
	tb.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		tb.Fatal(err)
	}
	return obj
}

// squeezed lifts, squeezes and lowers src with default options, as the
// squeeze command does.
func squeezed(tb testing.TB, src string) *objfile.Object {
	tb.Helper()
	p, err := cfg.Build(assemble(tb, src), "main")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := squeeze.Run(p); err != nil {
		tb.Fatal(err)
	}
	obj, err := cfg.Lower(p)
	if err != nil {
		tb.Fatal(err)
	}
	return obj
}

// sameProgram reports the first difference between two lifted programs.
func sameProgram(got, want *cfg.Program) error {
	if len(got.Funcs) != len(want.Funcs) {
		return fmt.Errorf("%d funcs, want %d", len(got.Funcs), len(want.Funcs))
	}
	for fi, gf := range got.Funcs {
		wf := want.Funcs[fi]
		if gf.Name != wf.Name || len(gf.Blocks) != len(wf.Blocks) {
			return fmt.Errorf("func %d: %s with %d blocks, want %s with %d",
				fi, gf.Name, len(gf.Blocks), wf.Name, len(wf.Blocks))
		}
		for bi, gb := range gf.Blocks {
			wb := wf.Blocks[bi]
			var what string
			switch {
			case gb.Label != wb.Label:
				what = fmt.Sprintf("label %s, want %s", gb.Label, wb.Label)
			case gb.SrcWordOff != wb.SrcWordOff:
				what = fmt.Sprintf("SrcWordOff %d, want %d", gb.SrcWordOff, wb.SrcWordOff)
			case gb.FallsTo != wb.FallsTo:
				what = fmt.Sprintf("FallsTo %q, want %q", gb.FallsTo, wb.FallsTo)
			case !sameInsts(got, gb.Insts, want, wb.Insts):
				what = "instructions differ"
			case !reflect.DeepEqual(gb.JT, wb.JT):
				what = fmt.Sprintf("JT %+v, want %+v", gb.JT, wb.JT)
			default:
				continue
			}
			return fmt.Errorf("func %s block %d (%s): %s", gf.Name, bi, wb.Label, what)
		}
	}
	switch {
	case !bytes.Equal(got.Data, want.Data):
		return fmt.Errorf("data differs")
	case !slices.Equal(got.DataRelocs, want.DataRelocs):
		return fmt.Errorf("DataRelocs %v, want %v", got.DataRelocs, want.DataRelocs)
	case !slices.Equal(got.DataSymbols, want.DataSymbols):
		return fmt.Errorf("DataSymbols %v, want %v", got.DataSymbols, want.DataSymbols)
	case got.Entry != want.Entry:
		return fmt.Errorf("entry %q, want %q", got.Entry, want.Entry)
	}
	return nil
}

// sameInsts reports whether two instruction lists hold the same words,
// kinds and resolved references; the programs' side tables may number the
// references differently.
func sameInsts(gp *cfg.Program, got []cfg.Inst, wp *cfg.Program, want []cfg.Inst) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Word != w.Word || g.Kind() != w.Kind() || gp.RefOf(g) != wp.RefOf(w) {
			return false
		}
	}
	return true
}

func cloneObject(o *objfile.Object) *objfile.Object {
	return &objfile.Object{
		Text:    slices.Clone(o.Text),
		Data:    slices.Clone(o.Data),
		Symbols: slices.Clone(o.Symbols),
		Relocs:  slices.Clone(o.Relocs),
	}
}

func symbolIndex(tb testing.TB, o *objfile.Object, name string) int {
	tb.Helper()
	for i, s := range o.Symbols {
		if s.Name == name {
			return i
		}
	}
	tb.Fatalf("no symbol %s", name)
	return -1
}

// textReloc returns the index of the first text relocation of the kind.
func textReloc(tb testing.TB, o *objfile.Object, kind objfile.RelocKind) int {
	tb.Helper()
	for i, r := range o.Relocs {
		if r.Section == objfile.SecText && r.Kind == kind {
			return i
		}
	}
	tb.Fatalf("no text relocation of kind %v", kind)
	return -1
}

// malformedCases perturbs liftProgram's object in the ways an object read
// from outside can be wrong. wantErr records what both lifts do with it;
// where both succeed, they must also agree on the program.
var malformedCases = []struct {
	name    string
	wantErr bool
	mutate  func(tb testing.TB, o *objfile.Object)
}{
	{"well formed", false, func(testing.TB, *objfile.Object) {}},
	{"empty text", true, func(_ testing.TB, o *objfile.Object) {
		o.Text = nil
	}},
	{"no function at word 0", true, func(tb testing.TB, o *objfile.Object) {
		o.Symbols[symbolIndex(tb, o, "main")].Kind = objfile.SymLabel
	}},
	{"misaligned text symbol", true, func(tb testing.TB, o *objfile.Object) {
		o.Symbols[symbolIndex(tb, o, "case0")].Offset++
	}},
	{"text symbol past end", true, func(tb testing.TB, o *objfile.Object) {
		o.Symbols[symbolIndex(tb, o, "case0")].Offset = uint32(len(o.Text)) * isa.WordSize
	}},
	{"text symbol at maximum offset", true, func(tb testing.TB, o *objfile.Object) {
		o.Symbols[symbolIndex(tb, o, "case0")].Offset = 0xFFFFFFFC
	}},
	{"two functions at one word", true, func(tb testing.TB, o *objfile.Object) {
		o.Symbols[symbolIndex(tb, o, "helper")].Offset = 0
	}},
	{"misaligned text relocation", true, func(tb testing.TB, o *objfile.Object) {
		o.Relocs[textReloc(tb, o, objfile.RelHi16)].Offset += 2
	}},
	{"duplicate text relocation", true, func(tb testing.TB, o *objfile.Object) {
		o.Relocs = append(o.Relocs, o.Relocs[textReloc(tb, o, objfile.RelHi16)])
	}},
	{"word32 relocation in text", true, func(tb testing.TB, o *objfile.Object) {
		o.Relocs[textReloc(tb, o, objfile.RelHi16)].Kind = objfile.RelWord32
	}},
	{"branch relocation with addend", true, func(tb testing.TB, o *objfile.Object) {
		o.Relocs[textReloc(tb, o, objfile.RelBrDisp21)].Addend = 4
	}},
	{"branch to a data symbol", true, func(tb testing.TB, o *objfile.Object) {
		o.Relocs[textReloc(tb, o, objfile.RelBrDisp21)].Sym = "table"
	}},
	{"branch to an undefined symbol", true, func(tb testing.TB, o *objfile.Object) {
		o.Relocs[textReloc(tb, o, objfile.RelBrDisp21)].Sym = "nowhere"
	}},
	{"label shadowed by a later data symbol", true, func(tb testing.TB, o *objfile.Object) {
		o.Symbols = append(o.Symbols, objfile.Symbol{Name: "out", Section: objfile.SecData})
	}},
	{"relocation past end of text", false, func(tb testing.TB, o *objfile.Object) {
		r := o.Relocs[textReloc(tb, o, objfile.RelHi16)]
		r.Offset = uint32(len(o.Text)+3) * isa.WordSize
		o.Relocs = append(o.Relocs, r)
	}},
	{"word32 relocation past end of text", false, func(tb testing.TB, o *objfile.Object) {
		r := o.Relocs[textReloc(tb, o, objfile.RelHi16)]
		r.Offset, r.Kind = 0xFFFFFFFC, objfile.RelWord32
		o.Relocs = append(o.Relocs, r)
	}},
	{"duplicate relocation past end of text", true, func(tb testing.TB, o *objfile.Object) {
		r := o.Relocs[textReloc(tb, o, objfile.RelHi16)]
		r.Offset = uint32(len(o.Text)) * isa.WordSize
		o.Relocs = append(o.Relocs, r, r)
	}},
	{"branch with addend past end of text", true, func(tb testing.TB, o *objfile.Object) {
		r := o.Relocs[textReloc(tb, o, objfile.RelBrDisp21)]
		r.Offset, r.Addend = 0xFFFFFFFC, 8
		o.Relocs = append(o.Relocs, r)
	}},
	{"branch to data past end of text", true, func(tb testing.TB, o *objfile.Object) {
		r := o.Relocs[textReloc(tb, o, objfile.RelBrDisp21)]
		r.Offset, r.Sym = uint32(len(o.Text)+1)*isa.WordSize, "fptr"
		o.Relocs = append(o.Relocs, r)
	}},
	{"illegal word mid-function", false, func(tb testing.TB, o *objfile.Object) {
		o.Text[2] = 0xFFFFFFFF
	}},
	{"control falls off the last function", true, func(tb testing.TB, o *objfile.Object) {
		o.Text = append(o.Text, nop)
	}},
	{"data relocation past end of data", false, func(tb testing.TB, o *objfile.Object) {
		o.Relocs = append(o.Relocs, objfile.Reloc{Section: objfile.SecData, Offset: 0xFFFFFFFC,
			Kind: objfile.RelWord32, Sym: "case0"})
	}},
	// The defects Program.Validate reports, made in the object, which the
	// lift finds without running Validate (validateDefects names them), and
	// repeated names that make no two blocks share a label.
	{"two text symbols named alike", true, func(tb testing.TB, o *objfile.Object) {
		w := syntheticBlock(tb, o).SrcWordOff
		o.Symbols = append(o.Symbols, textLabel("case0", w))
	}},
	{"symbol named like a synthetic label", true, func(tb testing.TB, o *objfile.Object) {
		b := syntheticBlock(tb, o)
		o.Symbols = append(o.Symbols, textLabel(b.Label, b.SrcWordOff+1))
	}},
	{"la of an undefined symbol", true, func(tb testing.TB, o *objfile.Object) {
		for i := range o.Relocs {
			if r := &o.Relocs[i]; r.Section == objfile.SecText && r.Sym == "table" {
				r.Sym = "nowhere"
			}
		}
	}},
	{"undefined entry", true, func(tb testing.TB, o *objfile.Object) {
		o.Symbols[symbolIndex(tb, o, "main")].Name = "start"
	}},
	{"control falls off a function", true, func(tb testing.TB, o *objfile.Object) {
		o.Text[o.Symbols[symbolIndex(tb, o, "helper")].Offset/isa.WordSize-1] = nop
	}},
	{"second name for a label", false, func(tb testing.TB, o *objfile.Object) {
		w := o.Symbols[symbolIndex(tb, o, "case1")].Offset / isa.WordSize
		o.Symbols = append(o.Symbols, textLabel("case0", int(w)))
	}},
	{"synthetic label's name on a later label's word", false, func(tb testing.TB, o *objfile.Object) {
		b := syntheticBlock(tb, o)
		w := o.Symbols[symbolIndex(tb, o, "out")].Offset / isa.WordSize
		o.Symbols = append(o.Symbols, textLabel(b.Label, int(w)))
	}},
	{"data symbol named like a label", false, func(tb testing.TB, o *objfile.Object) {
		o.Symbols = append(o.Symbols, objfile.Symbol{Name: "case1", Section: objfile.SecData})
	}},
}

// validateDefects names the FuzzBuild corpus file of each malformed case
// whose defect Program.Validate reports.
var validateDefects = map[string]string{
	"two text symbols named alike":        "duplicate-label",
	"symbol named like a synthetic label": "synthetic-label-collision",
	"branch to an undefined symbol":       "undefined-branch",
	"la of an undefined symbol":           "undefined-la",
	"undefined entry":                     "undefined-entry",
	"control falls off a function":        "falls-off-function",
}

var nop = isa.Encode(isa.OpL(isa.OpIntA, isa.RegZero, 0, isa.FnADD, isa.RegZero))

// textLabel is a label symbol at text word w.
func textLabel(name string, w int) objfile.Symbol {
	return objfile.Symbol{Name: name, Section: objfile.SecText, Offset: uint32(w * isa.WordSize), Kind: objfile.SymLabel}
}

// syntheticBlock returns the first block of o's lift that has a synthetic
// label and more than one instruction.
func syntheticBlock(tb testing.TB, o *objfile.Object) *cfg.Block {
	tb.Helper()
	p, err := cfg.Build(o, "main")
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if strings.HasPrefix(b.Label, f.Name+"$L") && len(b.Insts) > 1 {
				return b
			}
		}
	}
	tb.Fatal("no synthetic block")
	return nil
}

// TestBuildMatchesReference: Build lifts every MediaBench spec, squeezed
// and unsqueezed, to the same program as the reference lift, and fails on
// exactly the malformed objects the reference lift fails on.
func TestBuildMatchesReference(t *testing.T) {
	for _, spec := range mediabench.Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			src := spec.Generate()
			for _, obj := range []*objfile.Object{assemble(t, src), squeezed(t, src)} {
				want, err := cfg.RefBuild(obj, "main")
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				got, err := cfg.Build(obj, "main")
				if err != nil {
					t.Fatal(err)
				}
				if err := sameProgram(got, want); err != nil {
					t.Error(err)
				}
			}
		})
	}
	base := assemble(t, liftProgram)
	for _, tc := range malformedCases {
		t.Run(tc.name, func(t *testing.T) {
			o := cloneObject(base)
			tc.mutate(t, o)
			want, refErr := cfg.RefBuild(o, "main")
			got, err := cfg.Build(o, "main")
			if (err != nil) != (refErr != nil) {
				t.Fatalf("Build error %v, reference error %v", err, refErr)
			}
			if (err != nil) != tc.wantErr {
				t.Fatalf("error %v, want error: %v", err, tc.wantErr)
			}
			if err == nil {
				if err := sameProgram(got, want); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

var updateSeeds = flag.Bool("update-fuzz-seeds", false,
	"rewrite the FuzzBuild corpus files of the objects with a defect Program.Validate reports")

// TestRejectedObjectsFailSquash: a squash of every malformed object the lift
// rejects returns an error rather than panicking, and each object with a
// defect Program.Validate reports is a committed FuzzBuild seed.
func TestRejectedObjectsFailSquash(t *testing.T) {
	base := assemble(t, liftProgram)
	seeds := 0
	for _, tc := range malformedCases {
		if !tc.wantErr {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			o := cloneObject(base)
			tc.mutate(t, o)
			if _, err := core.Squash(o, make(profile.Counts, len(o.Text)), core.DefaultConfig()); err == nil {
				t.Fatal("squash accepted the object")
			}
			name, ok := validateDefects[tc.name]
			if !ok {
				return
			}
			seeds++
			var buf bytes.Buffer
			if _, err := o.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", buf.Bytes())
			path := filepath.Join("testdata", "fuzz", "FuzzBuild", name)
			if *updateSeeds {
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != want {
				t.Fatalf("%s does not hold the object (%v); regenerate it with -update-fuzz-seeds", path, err)
			}
		})
	}
	if seeds != len(validateDefects) {
		t.Errorf("%d of %d Validate defects are rejected cases", seeds, len(validateDefects))
	}
}

// TestDataSymbolOrderStable: data symbols sharing an offset keep object
// order in the lifted program. More than 12 of them, because sort.Slice
// sorts up to 12 elements by insertion sort, which is stable.
func TestDataSymbolOrderStable(t *testing.T) {
	o := assemble(t, liftProgram)
	// 24 symbols at four offsets, the offsets interleaved in object order.
	for i := 5; i >= 0; i-- {
		for off := 12; off >= 0; off -= 4 {
			o.Symbols = append(o.Symbols, objfile.Symbol{Name: fmt.Sprintf("d%d_%d", off, i),
				Section: objfile.SecData, Offset: uint32(off), Kind: objfile.SymObject})
		}
	}
	var want []string
	for off := 0; off < 16; off += 4 {
		for i := 5; i >= 0; i-- {
			want = append(want, fmt.Sprintf("d%d_%d", off, i))
		}
	}
	p, err := cfg.Build(o, "main")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range p.DataSymbols {
		if strings.HasPrefix(s.Name, "d") {
			got = append(got, s.Name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("data symbols in order %v, want %v", got, want)
	}
}

// TestBuildMatchesReferenceOnRepeatedNames: objects whose symbols repeat
// names across words and sections, take synthetic labels' names, or are
// referenced by a name nothing defines, which exercise the lift's name
// chains, lift as the reference lifts them, or fail where it fails.
func TestBuildMatchesReferenceOnRepeatedNames(t *testing.T) {
	base := assemble(t, liftProgram)
	p, err := cfg.Build(base, "main")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			names = append(names, b.Label)
		}
	}
	for _, s := range base.Symbols {
		names = append(names, s.Name)
	}
	names = append(names, "nowhere")
	r := rand.New(rand.NewSource(1))
	rejected := 0
	for iter := 0; iter < 3000; iter++ {
		o := cloneObject(base)
		for k := 1 + r.Intn(3); k > 0; k-- {
			name := names[r.Intn(len(names))]
			switch r.Intn(4) {
			case 0: // a new text label
				o.Symbols = append(o.Symbols, textLabel(name, r.Intn(len(o.Text))))
			case 1: // a new data symbol
				o.Symbols = append(o.Symbols, objfile.Symbol{Name: name, Section: objfile.SecData,
					Offset: uint32(r.Intn(len(o.Data)/4) * 4), Kind: objfile.SymObject})
			case 2: // a symbol renamed
				o.Symbols[r.Intn(len(o.Symbols))].Name = name
			case 3: // a relocation retargeted
				o.Relocs[r.Intn(len(o.Relocs))].Sym = name
			}
		}
		want, refErr := cfg.RefBuild(o, "main")
		got, err := cfg.Build(o, "main")
		if (err != nil) != (refErr != nil) {
			t.Fatalf("iteration %d: Build error %v, reference error %v", iter, err, refErr)
		}
		if err != nil {
			rejected++
			continue
		}
		if err := sameProgram(got, want); err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
	}
	t.Logf("%d of 3000 objects rejected", rejected)
}

// TestBuildWorkersMatchesReference: the lift of squeezed pgp, whose text
// spans several 16 Ki-word decode chunks, is the reference program at
// every decode worker count, serial (1) included.
func TestBuildWorkersMatchesReference(t *testing.T) {
	obj := pgpSqueezed(t)
	want, err := cfg.RefBuild(obj, "main")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		got, err := cfg.BuildWorkers(obj, "main", workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameProgram(got, want); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}

// TestBuildBlocksDoNotAlias: blocks and functions share backing arrays
// after Build, so growing one must reallocate it rather than overwrite the
// next block's instructions or the next function's blocks.
func TestBuildBlocksDoNotAlias(t *testing.T) {
	p, err := cfg.Build(assemble(t, liftProgram), "main")
	if err != nil {
		t.Fatal(err)
	}
	var blocks []*cfg.Block
	for _, f := range p.Funcs {
		blocks = append(blocks, f.Blocks...)
	}
	nop := cfg.Inst{Word: isa.Encode(isa.OpL(isa.OpIntA, isa.RegZero, 0, isa.FnADD, isa.RegZero))}
	for i, b := range blocks[:len(blocks)-1] {
		next := blocks[i+1]
		before := slices.Clone(next.Insts)
		b.Insts = append(b.Insts, nop)
		if !slices.Equal(next.Insts, before) {
			t.Fatalf("appending to block %s changed block %s", b.Label, next.Label)
		}
	}
	for i, f := range p.Funcs[:len(p.Funcs)-1] {
		next := p.Funcs[i+1]
		first := next.Blocks[0]
		f.Blocks = append(f.Blocks, &cfg.Block{Label: "extra"})
		if next.Blocks[0] != first {
			t.Fatalf("appending to function %s's blocks changed function %s", f.Name, next.Name)
		}
	}
}

// fuzzSeeds are FuzzBuild's seed objects: liftProgram, three random
// programs and the squeezed adpcm benchmark. testdata/fuzz/FuzzBuild holds
// the same objects as committed corpus files.
func fuzzSeeds(tb testing.TB) map[string]*objfile.Object {
	spec, ok := mediabench.SpecByName("adpcm")
	if !ok {
		tb.Fatal("no adpcm spec")
	}
	seeds := map[string]*objfile.Object{
		"lift":           assemble(tb, liftProgram),
		"adpcm-squeezed": squeezed(tb, spec.Generate()),
	}
	for _, seed := range []int64{1, 2, 3} {
		seeds["random-"+strconv.FormatInt(seed, 10)] = assemble(tb, testprog.Random(seed))
	}
	return seeds
}

// FuzzBuild feeds EMO1 bytes through ReadObject and Build: a malformed
// object must give an error, never a panic, Build must fail exactly where
// the reference lift fails, and where both succeed they must give the same
// program.
func FuzzBuild(f *testing.F) {
	for _, obj := range fuzzSeeds(f) {
		var buf bytes.Buffer
		if _, err := obj.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		obj, err := objfile.ReadObject(bytes.NewReader(data))
		if err != nil {
			return
		}
		got, err := cfg.Build(obj, "main")
		want, refErr := cfg.RefBuild(obj, "main")
		if (err != nil) != (refErr != nil) {
			t.Fatalf("Build error %v, reference error %v", err, refErr)
		}
		if err == nil {
			if err := sameProgram(got, want); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// pgpSqueezed is the squeezed pgp object, the largest lift of the squash
// benchmark's programs.
func pgpSqueezed(tb testing.TB) *objfile.Object {
	tb.Helper()
	spec, ok := mediabench.SpecByName("pgp")
	if !ok {
		tb.Fatal("no pgp spec")
	}
	return squeezed(tb, spec.Generate())
}

// TestBuildAllocGate gates the CFG lift of the squeezed pgp object: one
// backing array each for instructions, blocks and functions, and one name
// table for its symbols, keep it at most 86 allocs per Build, whatever the
// instruction count (~21000 before the flat lift). It counts
// runtime.MemStats.Mallocs over a fixed number of calls rather than using
// testing.AllocsPerRun, which pins GOMAXPROCS to 1 and so would never run
// the parallel decode: the count reads 67 at GOMAXPROCS 1 and 75-78 at 2 to
// 16, the decode workers' share.
func TestBuildAllocGate(t *testing.T) {
	const runs = 20
	obj := pgpSqueezed(t)
	if _, err := cfg.Build(obj, "main"); err != nil { // warm up, as AllocsPerRun does
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := cfg.Build(obj, "main"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	n := (after.Mallocs - before.Mallocs) / runs
	t.Logf("GOMAXPROCS %d: %d allocs/op", runtime.GOMAXPROCS(0), n)
	if n > 86 {
		t.Errorf("CFG lift of squeezed pgp: %d allocs/op, ceiling 86", n)
	}
}

// BenchmarkBuild times the lift TestBuildAllocGate gates.
func BenchmarkBuild(b *testing.B) {
	obj := pgpSqueezed(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Build(obj, "main"); err != nil {
			b.Fatal(err)
		}
	}
}
