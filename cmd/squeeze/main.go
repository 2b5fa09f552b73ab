// Command squeeze compacts a relocatable object: unreachable code and
// no-op elimination plus procedural abstraction, reproducing the baseline
// compactor the paper's squash tool builds on ([7] in the paper).
//
// Usage:
//
//	squeeze prog.o -o prog.sq.o
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cfg"
	"repro/internal/objfile"
	"repro/internal/squeeze"
)

func main() {
	out := flag.String("o", "", "output object (default: input with .sq.o suffix)")
	entry := flag.String("entry", "main", "program entry symbol")
	noUnreach := flag.Bool("no-unreachable", false, "skip unreachable code elimination")
	noNops := flag.Bool("no-nops", false, "skip no-op elimination")
	noPA := flag.Bool("no-abstraction", false, "skip procedural abstraction")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: squeeze [-o out.o] prog.o")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	obj, err := objfile.ReadObject(f)
	f.Close()
	if err != nil {
		fail(err)
	}
	p, err := cfg.Build(obj, *entry)
	if err != nil {
		fail(err)
	}
	st, err := squeeze.RunOpts(p, squeeze.Options{
		NoUnreachable: *noUnreach,
		NoNops:        *noNops,
		NoAbstraction: *noPA,
	})
	if err != nil {
		fail(err)
	}
	sqObj, err := cfg.Lower(p)
	if err != nil {
		fail(err)
	}
	name := *out
	if name == "" {
		name = flag.Arg(0) + ".sq.o"
	}
	of, err := os.Create(name)
	if err != nil {
		fail(err)
	}
	if _, err := sqObj.WriteTo(of); err != nil {
		fail(err)
	}
	if err := of.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("%s: %d -> %d instructions (%.1f%% reduction)\n",
		name, st.InputInsts, st.OutputInsts, 100*st.Reduction())
	fmt.Printf("  unreachable removed: %d insts (%d funcs, %d blocks)\n",
		st.InstsUnreachable, st.FuncsRemoved, st.BlocksRemoved)
	fmt.Printf("  no-ops removed: %d\n", st.NopsRemoved)
	fmt.Printf("  procedural abstraction: %d functions, %d insts saved\n",
		st.AbstractedFuncs, st.AbstractedSavings)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "squeeze:", err)
	os.Exit(1)
}
