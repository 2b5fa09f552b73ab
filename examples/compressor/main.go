// Compressor: the split-stream canonical-Huffman coder of §3 in isolation.
//
// This example compresses a realistic instruction sequence, prints the
// per-stream statistics (how many distinct values each operand stream
// carries, and its share of the compressed bits), and round-trips the
// sequence through the decoder.
//
//	go run ./examples/compressor
package main

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/huffman"
	"repro/internal/isa"
	"repro/internal/objfile"
	"repro/internal/streamcomp"
)

const source = `
        .text
        .func crc
        lda  sp, -32(sp)
        stw  ra, 0(sp)
        clr  t0
        li   t1, 255
loop:   ldb  t2, 0(a0)
        xor  t0, t2, t0
        li   t3, 8
bits:   and  t0, 1, t4
        srl  t0, 1, t0
        beq  t4, nofeed
        xor  t0, 140, t0
nofeed: sub  t3, 1, t3
        bgt  t3, bits
        add  a0, 1, a0
        sub  a1, 1, a1
        bgt  a1, loop
        and  t0, t1, v0
        ldw  ra, 0(sp)
        lda  sp, 32(sp)
        ret
`

func main() {
	obj, err := asm.Assemble(source)
	if err != nil {
		log.Fatal(err)
	}
	im, err := objfile.Link("crc", obj)
	if err != nil {
		log.Fatal(err)
	}
	seq := im.Text // the coder splits instruction words into its streams

	comp := streamcomp.Train([][]uint32{seq}, streamcomp.Options{})
	var w huffman.BitWriter
	if err := comp.Compress(&w, seq); err != nil {
		log.Fatal(err)
	}
	blob := w.Bytes()
	tables, err := comp.MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d instructions = %d raw bytes\n", len(seq), 4*len(seq))
	fmt.Printf("compressed: %d bits (%.1f bits/instruction, γ = %.3f)\n",
		w.Len(), float64(w.Len())/float64(len(seq)),
		float64(w.Len())/float64(32*len(seq)))
	fmt.Printf("code tables: %d bytes (N[] and D[] arrays for all %d streams)\n\n",
		len(tables), isa.NumStreams)

	// Per-field-type stream population, as in the paper's splitting scheme.
	counts := map[isa.StreamKind]map[uint32]bool{}
	totals := map[isa.StreamKind]int{}
	for _, word := range seq {
		for _, fv := range isa.Fields(isa.Decode(word)) {
			if counts[fv.Kind] == nil {
				counts[fv.Kind] = map[uint32]bool{}
			}
			counts[fv.Kind][fv.Value] = true
			totals[fv.Kind]++
		}
	}
	fmt.Printf("%-10s  %10s  %15s\n", "stream", "fields", "distinct values")
	for k := isa.StreamKind(0); k < isa.NumStreams; k++ {
		if totals[k] == 0 {
			continue
		}
		fmt.Printf("%-10v  %10d  %15d\n", k, totals[k], len(counts[k]))
	}

	// Round trip.
	var back []uint32
	bits, err := comp.DecompressWords(blob, 0, func(word uint32) error {
		back = append(back, word)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := range seq {
		if back[i] != seq[i] {
			log.Fatalf("instruction %d corrupted by round trip", i)
		}
	}
	fmt.Printf("\nround trip: %d bits decoded back to %d identical instructions\n", bits, len(back))
}
