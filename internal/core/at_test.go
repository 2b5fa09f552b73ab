package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cfg"
	"repro/internal/isa"
)

// refCheckAT is the AT scan checkAT replaced: the format test, then
// TouchesReg, on every instruction, in function and block order.
func refCheckAT(p *cfg.Program) error {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				if in.Format() != isa.FormatPal && cfg.TouchesReg(in, isa.RegAT) {
					return fmt.Errorf("squash: block %s uses reserved register AT (r28)", b.Label)
				}
			}
		}
	}
	return nil
}

// TestCheckATMatchesTouchesReg: on random programs whose words, of every
// format, often hold AT in a register field, checkAT fails exactly where
// the format-then-TouchesReg scan fails, naming the same first block, at
// one worker and at four.
func TestCheckATMatchesTouchesReg(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var seen [isa.FormatIllegal + 1][2]int // words by format and by whether they touch AT
	randWord := func() uint32 {
		w := rng.Uint32()
		for _, shift := range []uint{21, 16, 0} {
			if rng.Intn(6) == 0 {
				w = w&^(31<<shift) | isa.RegAT<<shift
			}
		}
		return w
	}
	for trial := 0; trial < 2000; trial++ {
		p := &cfg.Program{}
		for fi := rng.Intn(4); fi >= 0; fi-- {
			f := &cfg.Func{Name: fmt.Sprintf("f%d", len(p.Funcs))}
			for bi := rng.Intn(3); bi >= 0; bi-- {
				b := &cfg.Block{Label: fmt.Sprintf("%s$%d", f.Name, len(f.Blocks))}
				for n := 1 + rng.Intn(6); n > 0; n-- {
					in := cfg.Inst{Word: randWord()}
					touches := 0
					if refCheckAT(&cfg.Program{Funcs: []*cfg.Func{{Blocks: []*cfg.Block{{Insts: []cfg.Inst{in}}}}}}) != nil {
						touches = 1
					}
					seen[in.Format()][touches]++
					b.Insts = append(b.Insts, in)
				}
				f.Blocks = append(f.Blocks, b)
			}
			p.Funcs = append(p.Funcs, f)
		}
		want := fmt.Sprint(refCheckAT(p))
		for _, workers := range []int{1, 4} {
			if got := fmt.Sprint(checkAT(p, workers)); got != want {
				t.Fatalf("trial %d, %d workers: checkAT = %s, reference %s", trial, workers, got, want)
			}
		}
	}
	for f := isa.FormatPal; f <= isa.FormatIllegal; f++ {
		if seen[f][0] == 0 {
			t.Errorf("no %v word that leaves AT alone was checked", f)
		}
		if seen[f][1] == 0 && f != isa.FormatPal && f != isa.FormatIllegal {
			t.Errorf("no %v word that touches AT was checked", f)
		}
	}
}
