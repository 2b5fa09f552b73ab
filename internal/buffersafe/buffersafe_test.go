package buffersafe

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
)

func build(t *testing.T, src string) *cfg.Program {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(obj, "main")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const program = `
        .text
        .func main
        lda  sp, -16(sp)
        stw  ra, 0(sp)
        bsr  ra, warm
        bsr  ra, cold1
        ldw  ra, 0(sp)
        lda  sp, 16(sp)
        clr  a0
        sys  halt
        .func warm              ; calls leaf only: buffer-safe
        lda  sp, -16(sp)
        stw  ra, 0(sp)
        bsr  ra, leaf
        ldw  ra, 0(sp)
        lda  sp, 16(sp)
        ret
        .func leaf              ; pure leaf: buffer-safe
        add  a0, 1, v0
        ret
        .func cold1             ; compressed itself: unsafe
        add  a0, 2, v0
        ret
        .func caller_of_cold    ; reaches cold1: unsafe
        lda  sp, -16(sp)
        stw  ra, 0(sp)
        bsr  ra, cold1
        ldw  ra, 0(sp)
        lda  sp, 16(sp)
        ret
        .func indirecty         ; unknown indirect call: unsafe
        lda  sp, -16(sp)
        stw  ra, 0(sp)
        ldw  pv, 0(sp)
        jsr  ra, (pv)
        ldw  ra, 0(sp)
        lda  sp, 16(sp)
        ret
`

func TestAnalyze(t *testing.T) {
	p := build(t, program)
	compressed := map[string]bool{"cold1": true}
	r := AnalyzeWorkers(p, compressed, 1)
	want := map[string]bool{
		"main":           false, // calls cold1
		"warm":           true,
		"leaf":           true,
		"cold1":          false,
		"caller_of_cold": false,
		"indirecty":      false,
	}
	for fn, safe := range want {
		if r.IsSafe(fn) != safe {
			t.Errorf("IsSafe(%s) = %v, want %v", fn, r.IsSafe(fn), safe)
		}
	}
	if r.SafeCount() != 2 {
		t.Errorf("SafeCount = %d, want 2", r.SafeCount())
	}
}

func TestUnknownFunctionUnsafe(t *testing.T) {
	p := build(t, program)
	r := AnalyzeWorkers(p, nil, 1)
	if r.IsSafe("nonexistent") {
		t.Error("unknown function reported safe")
	}
}

func TestNoCompressionAllSafeExceptIndirect(t *testing.T) {
	p := build(t, program)
	r := AnalyzeWorkers(p, nil, 1)
	for _, fn := range []string{"main", "warm", "leaf", "cold1", "caller_of_cold"} {
		if !r.IsSafe(fn) {
			t.Errorf("with nothing compressed, %s should be safe", fn)
		}
	}
	if r.IsSafe("indirecty") {
		t.Error("function with unknown indirect call must stay unsafe")
	}
}

func TestCallSiteStats(t *testing.T) {
	src := `
        .text
        .func main
        lda  sp, -16(sp)
        stw  ra, 0(sp)
        bsr  ra, coldcaller
        ldw  ra, 0(sp)
        lda  sp, 16(sp)
        clr  a0
        sys  halt
        .func coldcaller        ; compressed; calls one safe + one unsafe
        lda  sp, -16(sp)
        stw  ra, 0(sp)
        bsr  ra, safeleaf
        bsr  ra, unsafecold
        ldw  ra, 0(sp)
        lda  sp, 16(sp)
        ret
        .func safeleaf
        add  a0, 1, v0
        ret
        .func unsafecold
        add  a0, 2, v0
        ret
`
	p := build(t, src)
	compressed := map[string]bool{"coldcaller": true, "unsafecold": true}
	r := AnalyzeWorkers(p, compressed, 1)
	safe, total := CallSiteStats(p, compressed, r)
	if total != 2 || safe != 1 {
		t.Fatalf("CallSiteStats = %d/%d, want 1/2", safe, total)
	}
}
