package mediabench

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/isa"
)

// TestNoReadBeforeDefOfTemporaries statically checks the generator's
// register discipline with a forward must-be-defined dataflow analysis: a
// caller-saved temporary (t0–t7) read before being written on some path
// would make program output depend on leftover register contents —
// including code addresses, which change under rewriting and would break
// the behavioural-equivalence guarantee of the binary tools. (Two real
// generator bugs of exactly this kind were caught during development; this
// test keeps them out.)
func TestNoReadBeforeDefOfTemporaries(t *testing.T) {
	const nTemps = 8 // t0..t7
	type bits uint16
	all := bits(1<<nTemps - 1)

	for _, spec := range Specs()[:4] {
		obj, err := asm.Assemble(spec.Generate())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		p, err := cfg.Build(obj, "main")
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range p.Funcs {
			blocks := map[string]*cfg.Block{}
			var order []string
			for _, b := range f.Blocks {
				blocks[b.Label] = b
				order = append(order, b.Label)
			}
			preds := map[string][]string{}
			for _, b := range f.Blocks {
				succs, known := p.Succs(b)
				if !known {
					// Unresolved jump: give up on this function (its
					// blocks are excluded from compression anyway).
					preds = nil
					break
				}
				for _, s := range succs {
					if blocks[s] != nil {
						preds[s] = append(preds[s], b.Label)
					}
				}
			}
			if preds == nil {
				continue
			}

			// transfer computes defined-out from defined-in; calls clobber
			// conservatively nothing (callee writes are ignored: reading a
			// temp after a call that "defined" it in the callee would be a
			// convention violation too, so we require local definition; v0
			// is not a temp and is exempt).
			transfer := func(b *cfg.Block, in bits) bits {
				d := in
				for _, ins := range b.Insts {
					if ins.Raw() {
						continue
					}
					for r := uint32(0); r < nTemps; r++ {
						if cfg.WritesReg(ins, isa.RegT0+r) {
							d |= 1 << r
						}
					}
				}
				return d
			}

			// Fixpoint: defined-in = intersection over predecessors;
			// function entry starts with nothing defined.
			in := map[string]bits{}
			for _, l := range order {
				in[l] = all
			}
			in[f.Blocks[0].Label] = 0
			for changed := true; changed; {
				changed = false
				for _, l := range order {
					v := in[l]
					var meet bits = all
					if len(preds[l]) == 0 {
						meet = 0
					}
					for _, pr := range preds[l] {
						meet &= transfer(blocks[pr], in[pr])
					}
					if l == f.Blocks[0].Label {
						meet = 0
					}
					if meet != v {
						in[l] = meet
						changed = true
					}
				}
			}

			// Check every read against the running defined set.
			for _, b := range f.Blocks {
				d := in[b.Label]
				for _, ins := range b.Insts {
					if ins.Raw() {
						continue
					}
					for r := uint32(0); r < nTemps; r++ {
						if cfg.ReadsReg(ins, isa.RegT0+r) && d&(1<<r) == 0 {
							t.Errorf("%s: %s block %s reads t%d before any definition reaches it: %v",
								spec.Name, f.Name, b.Label, r, isa.Decode(ins.Word))
						}
					}
					for r := uint32(0); r < nTemps; r++ {
						if cfg.WritesReg(ins, isa.RegT0+r) {
							d |= 1 << r
						}
					}
				}
			}
		}
	}
}
