// Command em-as assembles EM32 assembly source into a relocatable object
// (default) or a linked executable image.
//
// Usage:
//
//	em-as prog.s -o prog.o          # assemble
//	em-as -link -entry main prog.s -o prog.exe
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/asm"
	"repro/internal/objfile"
)

func main() {
	out := flag.String("o", "", "output file (default: input with .o or .exe suffix)")
	link := flag.Bool("link", false, "link the object into an executable image")
	entry := flag.String("entry", "main", "entry symbol when linking")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: em-as [-link] [-entry sym] [-o out] prog.s")
		os.Exit(2)
	}
	in := flag.Arg(0)
	src, err := os.ReadFile(in)
	if err != nil {
		fail(err)
	}
	obj, err := asm.Assemble(string(src))
	if err != nil {
		fail(err)
	}
	name := *out
	if name == "" {
		name = in + ".o"
		if *link {
			name = in + ".exe"
		}
	}
	f, err := os.Create(name)
	if err != nil {
		fail(err)
	}
	if *link {
		im, err := objfile.Link(*entry, obj)
		if err != nil {
			fail(err)
		}
		if _, err := im.WriteTo(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("%s: %d instructions, %d data bytes, entry %#x\n",
			name, len(im.Text), len(im.Data), im.Entry)
		return
	}
	if _, err := obj.WriteTo(f); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("%s: %d instructions, %d data bytes, %d symbols, %d relocations\n",
		name, len(obj.Text), len(obj.Data), len(obj.Symbols), len(obj.Relocs))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "em-as:", err)
	os.Exit(1)
}
