package buffersafe

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/mediabench"
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
	r := analyze(p, map[string]bool{"cold1": true}, 1)
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
	r := analyze(p, nil, 1)
	if r.IsSafe("nonexistent") {
		t.Error("unknown function reported safe")
	}
}

func TestNoCompressionAllSafeExceptIndirect(t *testing.T) {
	p := build(t, program)
	r := analyze(p, nil, 1)
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
	x, err := cfg.NewIndex(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	compressed := dense(x, map[string]bool{"coldcaller": true, "unsafecold": true})
	safe, total := CallSiteStats(x, compressed, AnalyzeWorkers(x, compressed, 1))
	if total != 2 || safe != 1 {
		t.Fatalf("CallSiteStats = %d/%d, want 1/2", safe, total)
	}
}

// dense turns a label set into the compressed bit of each block number.
func dense(x *cfg.Index, labels map[string]bool) []bool {
	bits := make([]bool, len(x.Blocks))
	for i, b := range x.Blocks {
		bits[i] = labels[b.Label]
	}
	return bits
}

// analyze runs AnalyzeWorkers on p with the labelled blocks compressed and
// returns its label-keyed view.
func analyze(p *cfg.Program, compressed map[string]bool, workers int) *refResult {
	x, err := cfg.NewIndex(p, workers)
	if err != nil {
		panic(err) // every program the tests analyze is valid
	}
	r := AnalyzeWorkers(x, dense(x, compressed), workers)
	out := &refResult{Safe: map[string]bool{}}
	for fi, f := range p.Funcs {
		out.Safe[f.Name] = r.IsSafe(int32(fi))
	}
	return out
}

// refResult maps function names to buffer safety.
type refResult struct {
	Safe map[string]bool
}

// IsSafe reports whether the named function is buffer-safe; unknown names
// are unsafe.
func (r *refResult) IsSafe(fn string) bool { return r.Safe[fn] }

// SafeCount reports how many functions are buffer-safe.
func (r *refResult) SafeCount() int {
	n := 0
	for _, s := range r.Safe {
		if s {
			n++
		}
	}
	return n
}

// refAnalyze is the original label-keyed analysis, kept as the test oracle
// for AnalyzeWorkers: a per-function scan into name-keyed callee sets, then
// fixed-point iteration over function names.
func refAnalyze(p *cfg.Program, compressed map[string]bool) *refResult {
	owner := map[string]string{} // block label -> function name
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			owner[b.Label] = f.Name
		}
	}
	callees := map[string]map[string]bool{} // caller fn -> callee fns
	unsafe := map[string]bool{}
	for _, f := range p.Funcs {
		cs := map[string]bool{}
		for _, b := range f.Blocks {
			for _, c := range p.Calls(b) {
				if c.Callee == "" {
					unsafe[f.Name] = true
					continue
				}
				cs[owner[c.Callee]] = true
			}
			succs, known := p.Succs(b)
			if !known {
				unsafe[f.Name] = true
			}
			for _, succ := range succs {
				if o := owner[succ]; o != f.Name {
					cs[o] = true
				}
			}
			if compressed[b.Label] {
				unsafe[f.Name] = true
			}
		}
		callees[f.Name] = cs
	}
	for changed := true; changed; {
		changed = false
		for _, f := range p.Funcs {
			if unsafe[f.Name] {
				continue
			}
			for callee := range callees[f.Name] {
				if unsafe[callee] {
					unsafe[f.Name] = true
					changed = true
					break
				}
			}
		}
	}
	res := &refResult{Safe: map[string]bool{}}
	for _, f := range p.Funcs {
		res.Safe[f.Name] = !unsafe[f.Name]
	}
	return res
}

// refCallSiteStats is the original label-keyed CallSiteStats.
func refCallSiteStats(p *cfg.Program, compressed map[string]bool, r *refResult) (safeCalls, totalCalls int) {
	owner := map[string]string{}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			owner[b.Label] = f.Name
		}
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if !compressed[b.Label] {
				continue
			}
			for _, c := range p.Calls(b) {
				totalCalls++
				if c.Callee != "" && r.IsSafe(owner[c.Callee]) {
					safeCalls++
				}
			}
		}
	}
	return safeCalls, totalCalls
}

// TestBufferSafeMatchesReference: on every MediaBench program, under seeded
// random compressed sets (whole functions plus scattered blocks, from none
// to most of the program), AnalyzeWorkers and CallSiteStats agree with the
// label-keyed reference at 1, 2 and 8 workers.
func TestBufferSafeMatchesReference(t *testing.T) {
	for si, spec := range mediabench.Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			obj, err := asm.Assemble(spec.Generate())
			if err != nil {
				t.Fatal(err)
			}
			p, err := cfg.Build(obj, "main")
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(si)))
			for trial := 0; trial < 6; trial++ {
				compressed := map[string]bool{}
				frac := float64(trial) / 6
				for _, f := range p.Funcs {
					whole := rng.Float64() < frac
					for _, b := range f.Blocks {
						if whole || rng.Float64() < frac/4 {
							compressed[b.Label] = true
						}
					}
				}
				want := refAnalyze(p, compressed)
				wantSafe, wantTotal := refCallSiteStats(p, compressed, want)
				for _, w := range []int{1, 2, 8} {
					x, err := cfg.NewIndex(p, w)
					if err != nil {
						t.Fatal(err)
					}
					bits := dense(x, compressed)
					got := AnalyzeWorkers(x, bits, w)
					for fi, f := range p.Funcs {
						if got.IsSafe(int32(fi)) != want.IsSafe(f.Name) {
							t.Fatalf("trial %d workers=%d: %s safe=%v, want %v", trial, w, f.Name, got.IsSafe(int32(fi)), want.IsSafe(f.Name))
						}
					}
					safe, total := CallSiteStats(x, bits, got)
					if fmt.Sprint(safe, total) != fmt.Sprint(wantSafe, wantTotal) {
						t.Fatalf("trial %d workers=%d: CallSiteStats %d/%d, want %d/%d", trial, w, safe, total, wantSafe, wantTotal)
					}
				}
			}
		})
	}
}
