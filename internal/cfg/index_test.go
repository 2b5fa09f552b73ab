package cfg_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cfg"
	"repro/internal/mediabench"
	"repro/internal/objfile"
)

// refBackEdges is the original label-keyed back-edge search, kept as the
// test oracle for Index.BackEdges: an iterative depth-first search per
// function over Program.Succs, with a per-function label map for membership
// and colours.
func refBackEdges(p *cfg.Program) [][2]string {
	var out [][2]string
	for _, f := range p.Funcs {
		inFunc := map[string]*cfg.Block{}
		for _, b := range f.Blocks {
			inFunc[b.Label] = b
		}
		const (
			white = 0 // unvisited
			gray  = 1 // on the DFS stack
			black = 2 // done
		)
		color := map[string]int{}
		type frame struct {
			label string
			succs []string
			next  int
		}
		var stack []frame
		pushBlock := func(label string) {
			b := inFunc[label]
			succs, _ := p.Succs(b)
			var intra []string
			for _, s := range succs {
				if inFunc[s] != nil {
					intra = append(intra, s)
				}
			}
			color[label] = gray
			stack = append(stack, frame{label: label, succs: intra})
		}
		for _, root := range f.Blocks {
			if color[root.Label] != white {
				continue
			}
			pushBlock(root.Label)
			for len(stack) > 0 {
				fr := &stack[len(stack)-1]
				if fr.next < len(fr.succs) {
					s := fr.succs[fr.next]
					fr.next++
					switch color[s] {
					case white:
						pushBlock(s)
					case gray:
						out = append(out, [2]string{fr.label, s})
					}
					continue
				}
				color[fr.label] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return out
}

// backEdges lists the index's back edges by label.
func backEdges(p *cfg.Program) [][2]string {
	x, err := cfg.NewIndex(p, 1)
	if err != nil {
		panic(err) // every program the tests build is valid
	}
	var out [][2]string
	for _, e := range x.BackEdges() {
		out = append(out, [2]string{x.Blocks[e.From].Label, x.Blocks[e.To].Label})
	}
	return out
}

// checkIndex compares every per-block fact of x with what the block's own
// label-keyed accessors report.
func checkIndex(p *cfg.Program, x *cfg.Index) error {
	var blocks []*cfg.Block
	owner := map[string]int32{}
	for fi, f := range p.Funcs {
		if int(x.FuncStart[fi]) != len(blocks) {
			return fmt.Errorf("function %s starts at %d, want %d", f.Name, x.FuncStart[fi], len(blocks))
		}
		for _, b := range f.Blocks {
			owner[b.Label] = int32(fi)
			blocks = append(blocks, b)
		}
	}
	if len(x.Blocks) != len(blocks) || int(x.FuncStart[len(p.Funcs)]) != len(blocks) {
		return fmt.Errorf("%d blocks, want %d", len(x.Blocks), len(blocks))
	}
	num := func(l string) int32 {
		for i, b := range blocks {
			if b.Label == l {
				return int32(i)
			}
		}
		return cfg.NoBlock
	}
	preds := make([][]int32, len(blocks))
	callers := make([][]int32, len(blocks))
	taken := map[string]bool{}
	for _, r := range p.DataRelocs {
		taken[r.Sym] = true
	}
	for i, b := range blocks {
		if x.Blocks[i] != b || x.Num(b.Label) != int32(i) || x.Fn[i] != owner[b.Label] {
			return fmt.Errorf("block %d: %s numbered %d in function %d", i, b.Label, x.Num(b.Label), x.Fn[i])
		}
		succs, known := p.Succs(b)
		var want []int32
		for _, s := range succs {
			if t := num(s); t >= 0 {
				want = append(want, t)
				preds[t] = append(preds[t], int32(i))
			}
		}
		if got := x.Succs(int32(i)); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s: Succs %v, want %v", b.Label, got, want)
		}
		if x.Unresolved[i] != !known {
			return fmt.Errorf("%s: Unresolved %v, want %v", b.Label, x.Unresolved[i], !known)
		}
		calls := p.Calls(b)
		if got := x.Calls(int32(i)); len(got)+len(calls) > 0 && !reflect.DeepEqual(got, calls) {
			return fmt.Errorf("%s: Calls %v, want %v", b.Label, got, calls)
		}
		for k, c := range calls {
			want := cfg.NoBlock
			if c.Callee != "" {
				want = num(c.Callee)
			}
			if got := x.Callees(int32(i))[k]; got != want {
				return fmt.Errorf("%s: call %d callee %d, want %d", b.Label, k, got, want)
			}
			if want >= 0 {
				callers[want] = append(callers[want], int32(i))
			}
		}
		fall := cfg.NoBlock
		if b.FallsTo != "" {
			fall = num(b.FallsTo)
		}
		if x.FallsTo[i] != fall {
			return fmt.Errorf("%s: FallsTo %d, want %d", b.Label, x.FallsTo[i], fall)
		}
		for _, in := range b.Insts {
			if in.Kind() == cfg.TargetLo16 {
				taken[p.Target(in)] = true
			}
		}
	}
	for i, b := range blocks {
		if x.AddrTaken[i] != taken[b.Label] {
			return fmt.Errorf("%s: AddrTaken %v, want %v", b.Label, x.AddrTaken[i], taken[b.Label])
		}
		if got := x.Preds(int32(i)); len(got)+len(preds[i]) > 0 && !reflect.DeepEqual(got, preds[i]) {
			return fmt.Errorf("%s: Preds %v, want %v", b.Label, got, preds[i])
		}
		if got := x.Callers(int32(i)); len(got)+len(callers[i]) > 0 && !reflect.DeepEqual(got, callers[i]) {
			return fmt.Errorf("%s: Callers %v, want %v", b.Label, got, callers[i])
		}
	}
	if x.Num("no such label") != cfg.NoBlock {
		return fmt.Errorf("an unknown label has a number")
	}
	return nil
}

// TestIndexMatchesBlocks: on every MediaBench spec, squeezed and not, the
// index built at any worker count reports for each block exactly what the
// block's label-keyed accessors do, and finds the back edges the reference
// search finds, in the same order.
func TestIndexMatchesBlocks(t *testing.T) {
	for _, spec := range mediabench.Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			src := spec.Generate()
			for _, p := range []*cfg.Program{mustBuild(t, assemble(t, src)), mustBuild(t, squeezed(t, src))} {
				for _, w := range []int{1, 2, 8} {
					x, err := cfg.NewIndex(p, w)
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					if err := checkIndex(p, x); err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
				}
				if got, want := backEdges(p), refBackEdges(p); !reflect.DeepEqual(got, want) {
					t.Fatalf("back edges %v, want %v", got, want)
				}
			}
		})
	}
}

func mustBuild(tb testing.TB, obj *objfile.Object) *cfg.Program {
	tb.Helper()
	p, err := cfg.Build(obj, "main")
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func TestBackEdgesSimpleLoop(t *testing.T) {
	p := mustBuild(t, assemble(t, `
        .text
        .func main
        li   t0, 10
loop:   sub  t0, 1, t0
        bgt  t0, loop
        clr  a0
        sys  halt
`))
	if edges := backEdges(p); len(edges) != 1 || edges[0][1] != "loop" {
		t.Fatalf("edges = %v", edges)
	}
}

func TestBackEdgesNestedAndMultiple(t *testing.T) {
	p := mustBuild(t, assemble(t, `
        .text
        .func main
        li   t0, 3
outer:  li   t1, 4
inner:  sub  t1, 1, t1
        bgt  t1, inner
        sub  t0, 1, t0
        bgt  t0, outer
second: sys  getc
        bge  v0, second
        clr  a0
        sys  halt
`))
	edges := backEdges(p)
	heads := map[string]bool{}
	for _, e := range edges {
		heads[e[1]] = true
	}
	if len(edges) != 3 || !heads["outer"] || !heads["inner"] || !heads["second"] {
		t.Fatalf("edges = %v", edges)
	}
}

func TestBackEdgesAcyclic(t *testing.T) {
	p := mustBuild(t, assemble(t, `
        .text
        .func main
        beq  v0, a
        nop
a:      beq  v0, b
        nop
b:      clr  a0
        sys  halt
`))
	if edges := backEdges(p); len(edges) != 0 {
		t.Fatalf("acyclic CFG has back edges: %v", edges)
	}
}

// TestNewIndexRejectsInvalidPrograms: on programs broken by hand after the
// lift, NewIndex fails exactly where Program.Validate fails, at any worker
// count. A dead reference to nothing, which unswitching leaves when it
// reclaims a table, is no defect.
func TestNewIndexRejectsInvalidPrograms(t *testing.T) {
	cases := []struct {
		name    string
		wantErr bool
		breakIt func(p *cfg.Program)
	}{
		{"valid", false, func(*cfg.Program) {}},
		{"duplicate label", true, func(p *cfg.Program) {
			bs := p.Funcs[0].Blocks
			bs[2].Label = bs[1].Label
		}},
		{"dangling reference", true, func(p *cfg.Program) {
			for _, b := range p.Funcs[0].Blocks {
				for i, in := range b.Insts {
					if in.Kind() == cfg.TargetBranch {
						b.Insts[i] = p.Refer(in.Word, in.Kind(), "nowhere", 0)
						return
					}
				}
			}
		}},
		{"dangling fallthrough", true, func(p *cfg.Program) {
			for _, b := range p.Funcs[0].Blocks {
				if b.FallsTo != "" {
					b.FallsTo = "nowhere"
					return
				}
			}
		}},
		{"undefined entry", true, func(p *cfg.Program) { p.Entry = "nowhere" }},
		{"entry block misnamed", true, func(p *cfg.Program) { p.Funcs[1].Name = "elsewhere" }},
		{"function without blocks", true, func(p *cfg.Program) {
			p.Funcs = append(p.Funcs, &cfg.Func{Name: "empty"})
		}},
		{"dead reference to nothing", false, func(p *cfg.Program) {
			p.Refs = append(p.Refs, cfg.Ref{Sym: "nowhere"})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range []int{1, 4} {
				p := mustBuild(t, assemble(t, liftProgram))
				tc.breakIt(p)
				_, err := cfg.NewIndex(p, w)
				verr := p.Validate()
				if (err != nil) != tc.wantErr || (verr != nil) != tc.wantErr {
					t.Fatalf("workers=%d: NewIndex error %v, Validate error %v, want error: %v", w, err, verr, tc.wantErr)
				}
			}
		})
	}
}
