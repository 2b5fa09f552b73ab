package core

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/objfile"
	"repro/internal/profile"
	"repro/internal/vm"
)

// testProgram exercises every runtime mechanism: cold code reached rarely,
// calls out of the runtime buffer (restore stubs), recursion through a
// restore stub, a buffer-safe leaf callee, a cold jump table (unswitched),
// and an indirect call through a function pointer.
const testProgram = `
        .text
        .func main
        lda  sp, -32(sp)
        stw  ra, 0(sp)
hot:    sys  getc
        blt  v0, fin
        sub  v0, 48, t0
        cmpult t0, 10, t1
        bne  t1, digit
        mov  v0, a0
        sys  putc
        br   hot
digit:  mov  t0, a0
        bsr  ra, coldsel
        mov  v0, a0
        sys  putc
        br   hot
fin:    bsr  ra, coldfin
        ldw  ra, 0(sp)
        lda  sp, 32(sp)
        clr  a0
        sys  halt

        .func coldsel
        lda  sp, -32(sp)
        stw  ra, 0(sp)
        stw  a0, 4(sp)
        mov  a0, t0
        cmpult t0, 3, t1
        beq  t1, cs_dflt
        sll  t0, 2, t1
        la   t2, seltab
        add  t2, t1, t2
        ldw  t3, 0(t2)
        jmp  (t3)
cs0:    bsr  ra, coldadd
        br   cs_out
cs1:    li   a0, 4
        bsr  ra, coldrec
        br   cs_out
cs2:    bsr  ra, leafy
        br   cs_out
cs_dflt:
        li   v0, 35
        br   cs_out2
cs_out: ldw  a0, 4(sp)
        add  v0, a0, v0
        and  v0, 63, v0
        add  v0, 48, v0
cs_out2:
        ldw  ra, 0(sp)
        lda  sp, 32(sp)
        ret

        .func coldadd
        lda  sp, -16(sp)
        stw  ra, 0(sp)
        bsr  ra, leafy
        add  v0, 7, v0
        ldw  ra, 0(sp)
        lda  sp, 16(sp)
        ret

        .func coldrec
        lda  sp, -16(sp)
        stw  ra, 0(sp)
        stw  a0, 4(sp)
        ble  a0, cr_base
        sub  a0, 1, a0
        bsr  ra, coldrec
        ldw  a0, 4(sp)
        add  v0, a0, v0
        br   cr_out
cr_base:
        li   v0, 1
cr_out: ldw  ra, 0(sp)
        lda  sp, 16(sp)
        ret

        .func leafy
        li   v0, 5
        ret

        .func coldfin
        lda  sp, -16(sp)
        stw  ra, 0(sp)
        la   pv, coldfp
        jsr  ra, (pv)
        mov  v0, a0
        sys  putc
        ldw  ra, 0(sp)
        lda  sp, 16(sp)
        ret

        .func coldfp
        li   v0, 33
        ret

        .data
seltab: .word cs0, cs1, cs2
`

// prepare assembles the program, profiles it on profInput, and returns the
// object, the baseline image, and the profile.
func prepare(t *testing.T, src string, profInput []byte) (*objfile.Object, *objfile.Image, profile.Counts) {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	m := vm.New(im, profInput)
	m.EnableProfile()
	if err := m.Run(); err != nil {
		t.Fatalf("profiling run: %v", err)
	}
	return obj, im, m.Profile
}

// runBaseline executes the unmodified image.
func runBaseline(t *testing.T, im *objfile.Image, input []byte) *vm.Machine {
	t.Helper()
	m := vm.New(im, input)
	m.StackCheck = true
	if err := m.Run(); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	return m
}

// runSquashed executes a squashed image with the decompression runtime.
func runSquashed(t *testing.T, out *Output, input []byte) (*vm.Machine, *Runtime) {
	t.Helper()
	rt, err := NewRuntime(out.Meta)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	m := vm.New(out.Image, input)
	m.StackCheck = true
	rt.Install(m)
	if err := m.Run(); err != nil {
		t.Fatalf("squashed run: %v", err)
	}
	return m, rt
}

// assertEquivalent checks outputs, exit status, and the SP trace (the
// paper's claim that the call stack of original and compressed programs
// match at every point, §2.2).
func assertEquivalent(t *testing.T, base, sq *vm.Machine) {
	t.Helper()
	if string(base.Output) != string(sq.Output) {
		t.Fatalf("output differs:\n  baseline %q\n  squashed %q", base.Output, sq.Output)
	}
	if base.Status != sq.Status {
		t.Fatalf("status differs: %d vs %d", base.Status, sq.Status)
	}
	if len(base.SPTrace) != len(sq.SPTrace) {
		t.Fatalf("SP trace length differs: %d vs %d", len(base.SPTrace), len(sq.SPTrace))
	}
	for i := range base.SPTrace {
		if base.SPTrace[i] != sq.SPTrace[i] {
			t.Fatalf("SP differs at output byte %d: %#x vs %#x", i, base.SPTrace[i], sq.SPTrace[i])
		}
	}
}

var profInput = []byte("hello world this has no digits at all")
var timingInput = []byte("a0b1c2d3e9f 0121 xyz9")

func TestSquashBehaviouralEquivalence(t *testing.T) {
	obj, im, counts := prepare(t, testProgram, profInput)
	conf := DefaultConfig()
	conf.Regions.K = 96 // force several small regions so buffer exits occur
	out, err := Squash(obj, counts, conf)
	if err != nil {
		t.Fatalf("Squash: %v", err)
	}
	base := runBaseline(t, im, timingInput)
	sq, rt := runSquashed(t, out, timingInput)
	assertEquivalent(t, base, sq)

	if rt.Stats.Decompressions == 0 {
		t.Error("no decompressions happened; cold code was never compressed?")
	}
	if rt.Stats.CreateStubMisses == 0 {
		t.Error("no restore stubs created; calls from the buffer untested")
	}
	if rt.Stats.LiveStubs != 0 {
		t.Errorf("%d restore stubs leaked", rt.Stats.LiveStubs)
	}
	if out.Stats.RegionCount == 0 {
		t.Error("no regions formed")
	}
	t.Logf("squash: %d -> %d bytes (%.1f%%), %d regions, %d entry stubs, runtime: %+v",
		out.Stats.InputBytes, out.Stats.SquashedBytes, 100*out.Stats.Reduction(),
		out.Stats.RegionCount, out.Stats.EntryStubCount, rt.Stats)
}

func TestSquashAtManyThresholds(t *testing.T) {
	obj, im, counts := prepare(t, testProgram, profInput)
	base := runBaseline(t, im, timingInput)
	for _, theta := range []float64{0, 0.00001, 0.0001, 0.01, 0.5, 1.0} {
		conf := DefaultConfig()
		conf.Theta = theta
		out, err := Squash(obj, counts, conf)
		if err != nil {
			t.Fatalf("theta=%v: %v", theta, err)
		}
		sq, rt := runSquashed(t, out, timingInput)
		assertEquivalent(t, base, sq)
		if rt.Stats.LiveStubs != 0 {
			t.Errorf("theta=%v: %d stubs leaked", theta, rt.Stats.LiveStubs)
		}
	}
}

func TestSquashEverythingColdStillRuns(t *testing.T) {
	// θ=1: even main's hot loop is compressed; the program starts through
	// an entry stub and the whole run happens in and out of the buffer.
	obj, im, counts := prepare(t, testProgram, profInput)
	conf := DefaultConfig()
	conf.Theta = 1.0
	conf.Regions.K = 96
	out, err := Squash(obj, counts, conf)
	if err != nil {
		t.Fatal(err)
	}
	base := runBaseline(t, im, timingInput)
	sq, rt := runSquashed(t, out, timingInput)
	assertEquivalent(t, base, sq)
	if rt.Stats.Decompressions < 2 {
		t.Errorf("expected heavy decompression traffic, got %d", rt.Stats.Decompressions)
	}
	// Fully compressed code must run slower than the baseline.
	if sq.Cycles <= base.Cycles {
		t.Errorf("squashed at θ=1 not slower: %d vs %d cycles", sq.Cycles, base.Cycles)
	}
}

func TestSquashConfigVariants(t *testing.T) {
	obj, im, counts := prepare(t, testProgram, profInput)
	base := runBaseline(t, im, timingInput)
	variants := map[string]func(*Config){
		"no-buffersafe":   func(c *Config) { c.BufferSafe = false },
		"no-unswitch":     func(c *Config) { c.Unswitch = false },
		"no-pack":         func(c *Config) { c.Regions.Pack = false },
		"mtf":             func(c *Config) { c.MTF = true },
		"compile-time-rs": func(c *Config) { c.CompileTimeRestoreStubs = true; c.Regions.K = 96 },
		"small-K":         func(c *Config) { c.Regions.K = 96 },
		"large-K":         func(c *Config) { c.Regions.K = 4096 },
	}
	for name, mod := range variants {
		conf := DefaultConfig()
		conf.Theta = 1.0 // maximum stress
		mod(&conf)
		out, err := Squash(obj, counts, conf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sq, rt := runSquashed(t, out, timingInput)
		assertEquivalent(t, base, sq)
		if !conf.CompileTimeRestoreStubs && rt.Stats.LiveStubs != 0 {
			t.Errorf("%s: %d stubs leaked", name, rt.Stats.LiveStubs)
		}
	}
}

func TestCompileTimeRestoreStubsCostMore(t *testing.T) {
	obj, _, counts := prepare(t, testProgram, profInput)
	conf := DefaultConfig()
	conf.Theta = 1.0
	conf.Regions.K = 96
	runtimeOut, err := Squash(obj, counts, conf)
	if err != nil {
		t.Fatal(err)
	}
	conf.CompileTimeRestoreStubs = true
	staticOut, err := Squash(obj, counts, conf)
	if err != nil {
		t.Fatal(err)
	}
	if staticOut.Foot.RestoreStubsStatic == 0 {
		t.Fatal("compile-time mode created no static stubs")
	}
	if runtimeOut.Foot.RestoreStubsStatic != 0 {
		t.Fatal("runtime mode created static stubs")
	}
	t.Logf("static restore stubs: %d bytes (%d stubs); runtime stub area: %d bytes",
		staticOut.Foot.RestoreStubsStatic, staticOut.Stats.StaticRestoreStubCount,
		runtimeOut.Foot.StubArea)
}

func TestFootprintIdentity(t *testing.T) {
	obj, _, counts := prepare(t, testProgram, profInput)
	for _, theta := range []float64{0, 0.5, 1} {
		conf := DefaultConfig()
		conf.Theta = theta
		out, err := Squash(obj, counts, conf)
		if err != nil {
			t.Fatal(err)
		}
		// The Total() identity against the laid-out image is asserted
		// inside Squash; check the components are sensible here.
		f := out.Foot
		if f.RuntimeBuffer != conf.Regions.K {
			t.Errorf("buffer = %d, want %d", f.RuntimeBuffer, conf.Regions.K)
		}
		if f.Decompressor != DecompWords*4 {
			t.Errorf("decompressor = %d", f.Decompressor)
		}
		if f.NeverCompressed < 0 || f.CompressedCode < 0 {
			t.Errorf("negative component: %+v", f)
		}
		if theta == 1 && f.NeverCompressed > out.Stats.InputBytes/2 {
			t.Errorf("θ=1 but %d bytes never compressed (input %d)", f.NeverCompressed, out.Stats.InputBytes)
		}
	}
}

func TestMetaSerializationRoundTrip(t *testing.T) {
	obj, _, counts := prepare(t, testProgram, profInput)
	out, err := Squash(obj, counts, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := out.Meta.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalMeta(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.DecompAddr != out.Meta.DecompAddr || back.RtBufAddr != out.Meta.RtBufAddr ||
		back.K != out.Meta.K || len(back.OffsetTable) != len(out.Meta.OffsetTable) ||
		len(back.Blob) != len(out.Meta.Blob) || len(back.Tables) != len(out.Meta.Tables) {
		t.Fatalf("meta round trip mismatch:\n%+v\n%+v", out.Meta, back)
	}
	// The image serialization carries the meta too.
	var sb strings.Builder
	if _, err := out.Image.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	im2, err := objfile.ReadImage(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(im2.Meta) != len(out.Image.Meta) {
		t.Fatal("meta lost in image serialization")
	}
	if _, err := UnmarshalMeta(im2.Meta); err != nil {
		t.Fatal(err)
	}
}

func TestSquashRejectsATUse(t *testing.T) {
	src := `
        .text
        .func main
        li   at, 1
        clr  a0
        sys  halt
`
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(im, nil)
	m.EnableProfile()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := Squash(obj, m.Profile, DefaultConfig()); err == nil || !strings.Contains(err.Error(), "AT") {
		t.Fatalf("expected AT rejection, got %v", err)
	}
}

// TestGeneratedNameCollisionsFailSquash: the names the rewriter gives its
// stubs and reserved areas share the output's symbol table with the input's
// labels, so an input label that is one of them must fail the squash,
// naming the symbol. The label is on a hot block, which survives. A
// compile-time restore stub (rs$N) exists only in that mode, so rs$0
// collides only there.
func TestGeneratedNameCollisionsFailSquash(t *testing.T) {
	const anchor = "        bne  t1, digit\n"
	for _, tc := range []struct {
		label  string
		reject [2]bool // without, with compile-time restore stubs
	}{
		{symDecomp, [2]bool{true, true}},
		{symStubArea, [2]bool{true, true}},
		{symRtBuf, [2]bool{true, true}},
		{stubPrefix + "coldsel", [2]bool{true, true}},
		{"rs$0", [2]bool{false, true}},
	} {
		src := strings.Replace(testProgram, anchor, anchor+tc.label+":\n", 1)
		if src == testProgram {
			t.Fatal("testProgram lost its anchor line")
		}
		obj, _, counts := prepare(t, src, profInput)
		for mode, ctrs := range []bool{false, true} {
			conf := DefaultConfig()
			conf.Regions.K = 96
			conf.CompileTimeRestoreStubs = ctrs
			_, err := Squash(obj, counts, conf)
			switch {
			case tc.reject[mode] && err == nil:
				t.Errorf("label %s, restore stubs %v: squash accepted the collision", tc.label, ctrs)
			case tc.reject[mode] && !strings.Contains(err.Error(), tc.label):
				t.Errorf("label %s, restore stubs %v: error does not name the symbol: %v", tc.label, ctrs, err)
			case !tc.reject[mode] && err != nil:
				t.Errorf("label %s, restore stubs %v: %v", tc.label, ctrs, err)
			}
		}
	}
}

func TestMaxLiveStubsBounded(t *testing.T) {
	obj, _, counts := prepare(t, testProgram, profInput)
	conf := DefaultConfig()
	conf.Theta = 1.0
	conf.Regions.K = 96
	out, err := Squash(obj, counts, conf)
	if err != nil {
		t.Fatal(err)
	}
	_, rt := runSquashed(t, out, timingInput)
	// The recursion coldrec(4) shares one call-site stub; the paper saw at
	// most 9 live stubs. Our capacity default is 16.
	if rt.Stats.MaxLiveStubs > 16 {
		t.Fatalf("MaxLiveStubs = %d", rt.Stats.MaxLiveStubs)
	}
	if rt.Stats.MaxLiveStubs == 0 {
		t.Fatal("stub machinery never exercised")
	}
	t.Logf("max live restore stubs: %d", rt.Stats.MaxLiveStubs)
}

// TestSquashRejectsTagOverflow: runtime tags pack (region<<16 | resume), so
// a buffer bound that admits resume offsets past 16 bits (or a region count
// past 16 bits) must be an explicit squash-time error — silently truncated
// tags would resume execution at the wrong buffer offset.
func TestSquashRejectsTagOverflow(t *testing.T) {
	obj, _, counts := prepare(t, testProgram, profInput)
	conf := DefaultConfig()
	conf.Regions.K = (0xFFFF + 1) * 4 // first K whose word offsets overflow
	if _, err := Squash(obj, counts, conf); err == nil || !strings.Contains(err.Error(), "16-bit tag") {
		t.Fatalf("K=%d accepted despite tag overflow, err=%v", conf.Regions.K, err)
	}

	// Bound checks directly: the largest legal values pass, one past fails.
	if err := checkTagBounds(0xFFFF*4, 1<<16); err != nil {
		t.Fatalf("maximal legal bounds rejected: %v", err)
	}
	if err := checkTagBounds(512, 1<<16+1); err == nil {
		t.Fatal("region count past 16 bits accepted")
	}
	if err := checkTagBounds((0xFFFF+1)*4, 1); err == nil {
		t.Fatal("resume offset past 16 bits accepted")
	}

	// A legal large K still squashes and runs.
	conf.Regions.K = 0xFFFF * 4
	out, err := Squash(obj, counts, conf)
	if err != nil {
		t.Fatalf("maximal legal K rejected: %v", err)
	}
	if out.Meta.K != conf.Regions.K {
		t.Fatalf("K = %d, want %d", out.Meta.K, conf.Regions.K)
	}
}

func TestSquashDeterministic(t *testing.T) {
	obj, _, counts := prepare(t, testProgram, profInput)
	conf := DefaultConfig()
	conf.Theta = 0.01
	conf.Regions.K = 96
	var first []byte
	for i := 0; i < 3; i++ {
		out, err := Squash(obj, counts, conf)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if _, err := out.Image.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = []byte(buf.String())
		} else if buf.String() != string(first) {
			t.Fatalf("run %d produced a different image: rewriting is nondeterministic", i)
		}
	}
}
