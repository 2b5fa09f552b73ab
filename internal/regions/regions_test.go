package regions

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/isa"
)

// coldProgram: main has a hot loop plus several cold functions with calls
// between them.
const coldProgram = `
        .text
        .func main
        lda  sp, -16(sp)
        stw  ra, 0(sp)
hot:    sys  getc
        blt  v0, cleanup
        mov  v0, a0
        sys  putc
        br   hot
cleanup:
        bsr  ra, coldf
        ldw  ra, 0(sp)
        lda  sp, 16(sp)
        clr  a0
        sys  halt
        .func coldf
        lda  sp, -16(sp)
        stw  ra, 0(sp)
        add  v0, 1, t0
        sub  t0, 2, t1
        xor  t1, t0, t2
        and  t2, 7, t3
        bsr  ra, coldg
        ldw  ra, 0(sp)
        lda  sp, 16(sp)
        ret
        .func coldg
        add  a0, a0, v0
        sll  v0, 1, v0
        sub  v0, 1, v0
        xor  v0, 3, v0
        and  v0, 255, v0
        bis  v0, v0, v0
        add  v0, 2, v0
        sub  v0, 1, v0
        ret
        .func coldh
        add  a0, 1, v0
        ret
`

func buildCold(t *testing.T, src string) (*cfg.Program, map[string]bool) {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(obj, "main")
	if err != nil {
		t.Fatal(err)
	}
	// Mark everything except main's hot loop as cold.
	cold := map[string]bool{}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.Label != "hot" && !strings.Contains(b.Label, "$L") || f.Name != "main" {
				cold[b.Label] = true
			}
		}
	}
	delete(cold, "hot")
	return p, cold
}

func TestPartitionBasics(t *testing.T) {
	p, cold := buildCold(t, coldProgram)
	res, x, err := Partition(p, cold, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 {
		t.Fatal("no regions formed")
	}
	// All region blocks are cold and within the buffer bound.
	maxWords := DefaultConfig().K / isa.WordSize
	for _, r := range res.Regions {
		for _, b := range r.Blocks {
			if !cold[b.Label] {
				t.Errorf("region %d contains non-cold block %s", r.ID, b.Label)
			}
		}
		if w := BufferWords(x, r, nil); w > maxWords {
			t.Errorf("region %d: %d words > bound %d", r.ID, w, maxWords)
		}
		if len(res.Entries(x, r)) == 0 {
			t.Errorf("region %d has no entries", r.ID)
		}
	}
	// RegionOf is consistent.
	for _, r := range res.Regions {
		for _, b := range r.Blocks {
			if id, _ := inRegion(res, x, b.Label); id != r.ID {
				t.Errorf("RegionOf[%s] = %d, want %d", b.Label, id, r.ID)
			}
		}
	}
}

func TestPartitionRespectsSmallK(t *testing.T) {
	p, cold := buildCold(t, coldProgram)
	conf := DefaultConfig()
	conf.K = 32 // 8 words
	res, x, err := Partition(p, cold, conf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Regions {
		if w := BufferWords(x, r, nil); w > 8 {
			t.Errorf("region %d: %d words > 8", r.ID, w)
		}
	}
}

func TestSetjmpExcluded(t *testing.T) {
	src := `
        .text
        .func main
        lda  sp, -16(sp)
        stw  ra, 0(sp)
        sys  setjmp
        bne  v0, out
        bsr  ra, f
out:    ldw  ra, 0(sp)
        lda  sp, 16(sp)
        clr  a0
        sys  halt
        .func f
        add  a0, 1, v0
        sub  v0, 2, v0
        xor  v0, 3, v0
        and  v0, 7, v0
        add  v0, 1, v0
        sub  v0, 1, v0
        add  v0, 1, v0
        sub  v0, 1, v0
        add  v0, 1, v0
        sub  v0, 1, v0
        add  v0, 1, v0
        sub  v0, 1, v0
        ret
`
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(obj, "main")
	if err != nil {
		t.Fatal(err)
	}
	cold := map[string]bool{}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			cold[b.Label] = true
		}
	}
	res, x, err := Partition(p, cold, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Regions {
		for _, b := range r.Blocks {
			if b.Label == "main" || strings.HasPrefix(b.Label, "main$") || b.Label == "out" {
				t.Errorf("block %s of setjmp-calling main was compressed", b.Label)
			}
		}
	}
	if reason := excluded(res, x, "main"); !strings.Contains(reason, "setjmp") {
		t.Errorf("main exclusion reason = %q", reason)
	}
}

func TestProfitabilityRejectsTinyFragments(t *testing.T) {
	// A single 2-instruction cold function: the entry stub (2 words) is not
	// smaller than (1-γ)·2 ≈ 0.7 words, so compression is unprofitable.
	src := `
        .text
        .func main
        lda  sp, -16(sp)
        stw  ra, 0(sp)
        bsr  ra, tiny
        ldw  ra, 0(sp)
        lda  sp, 16(sp)
        clr  a0
        sys  halt
        .func tiny
        add  a0, 1, v0
        ret
`
	obj, _ := asm.Assemble(src)
	p, err := cfg.Build(obj, "main")
	if err != nil {
		t.Fatal(err)
	}
	cold := map[string]bool{"tiny": true}
	res, x, err := Partition(p, cold, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) != 0 {
		t.Fatalf("tiny fragment was compressed: %d regions", len(res.Regions))
	}
	if reason := excluded(res, x, "tiny"); !strings.Contains(reason, "profitable") {
		t.Errorf("exclusion reason = %q", reason)
	}
}

func TestPackingMergesSmallRegions(t *testing.T) {
	// Many small cold functions; packing should produce far fewer regions
	// than functions.
	var sb strings.Builder
	sb.WriteString("        .text\n        .func main\n        clr a0\n        sys halt\n")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&sb, "        .func cold%d\n", i)
		for j := 0; j < 8; j++ {
			fmt.Fprintf(&sb, "        add a0, %d, v0\n", j+i)
		}
		sb.WriteString("        ret\n")
	}
	obj, err := asm.Assemble(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(obj, "main")
	if err != nil {
		t.Fatal(err)
	}
	cold := map[string]bool{}
	for _, f := range p.Funcs {
		if f.Name != "main" {
			cold[f.Name] = true
		}
	}
	confNoPack := DefaultConfig()
	confNoPack.Pack = false
	resNo, _, err := Partition(p, cold, confNoPack)
	if err != nil {
		t.Fatal(err)
	}
	resYes, _, err := Partition(p, cold, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(resYes.Regions) >= len(resNo.Regions) {
		t.Fatalf("packing did not reduce regions: %d -> %d", len(resNo.Regions), len(resYes.Regions))
	}
	// 12 functions of 9 words each: 512/4 = 128 words per buffer; all
	// should fit in one region.
	if len(resYes.Regions) != 1 {
		t.Errorf("expected 1 packed region, got %d", len(resYes.Regions))
	}
}

func TestBufferWordsCountsExpansions(t *testing.T) {
	p, cold := buildCold(t, coldProgram)
	conf := DefaultConfig()
	conf.Pack = false // keep coldf and coldg in separate regions
	res, x, err := Partition(p, cold, conf)
	if err != nil {
		t.Fatal(err)
	}
	// Find a region containing coldf (which calls coldg).
	for _, r := range res.Regions {
		for _, b := range r.Blocks {
			if b.Label == "coldf" {
				withExp := BufferWords(x, r, nil)
				allSafe := BufferWords(x, r, func(int32) bool { return true })
				if withExp <= allSafe {
					t.Errorf("expansion accounting missing: %d <= %d", withExp, allSafe)
				}
			}
		}
	}
}

func TestBadConfigRejected(t *testing.T) {
	p, cold := buildCold(t, coldProgram)
	for _, conf := range []Config{{K: 0, Gamma: 0.66}, {K: 512, Gamma: 0}, {K: 512, Gamma: 1.5}} {
		if _, _, err := Partition(p, cold, conf); err == nil {
			t.Errorf("config %+v accepted", conf)
		}
	}
}
