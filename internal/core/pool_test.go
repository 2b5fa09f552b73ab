package core

import (
	"testing"
	"unsafe"

	"repro/internal/objfile"
	"repro/internal/profile"
	"repro/internal/race"
	"repro/internal/testprog"
)

// TestSquashPoolingOnOffByteIdentical is the pipeline-level pooling
// invariant: with drained pools (every buffer freshly allocated, as before
// pooling) and with pools warmed and dirtied by squashing a different,
// larger program, the squashed image and metadata are byte-identical —
// across coders, MTF, interpreted regions, and worker counts.
func TestSquashPoolingOnOffByteIdentical(t *testing.T) {
	obj, _, prof := prepare(t, testprog.Random(23), []byte("pooling pooling"))
	_, bigObj, bigProf := prepareMediabench(t, "adpcm")

	confs := map[string]Config{"default": DefaultConfig()}
	lz := DefaultConfig()
	lz.Coder = CoderLZ
	confs["lz"] = lz
	mtf := DefaultConfig()
	mtf.MTF = true
	mtf.Theta = 0.01
	confs["mtf"] = mtf
	interp := DefaultConfig()
	interp.Interpret = true
	confs["interp"] = interp

	for name, conf := range confs {
		drainPools()
		conf.Workers = 1
		want := obsSquashDigest(t, obj, prof, conf, nil)

		for _, workers := range []int{1, 4} {
			conf.Workers = workers
			obsSquashDigest(t, bigObj, bigProf, conf, nil)
			for cycle := 0; cycle < 3; cycle++ {
				if got := obsSquashDigest(t, obj, prof, conf, nil); got != want {
					t.Fatalf("%s: workers=%d cycle=%d: polluted-pool squash diverged from drained-pool squash",
						name, workers, cycle)
				}
			}
		}
	}
}

// TestEncodeScratchPartition checks the arena slicing contract directly:
// subslices are empty, have the exact requested capacities, are disjoint,
// and recycle without growth.
func TestEncodeScratchPartition(t *testing.T) {
	sc := new(encodeScratch)
	counts := []int{3, 0, 5, 1}
	seqs := sc.partition(counts)
	if len(seqs) != len(counts) {
		t.Fatalf("partition returned %d seqs, want %d", len(seqs), len(counts))
	}
	for i, s := range seqs {
		if len(s) != 0 || cap(s) != counts[i] {
			t.Fatalf("seq %d: len=%d cap=%d, want len=0 cap=%d", i, len(s), cap(s), counts[i])
		}
	}
	// Fill every subslice to capacity and check disjointness via values.
	for i := range seqs {
		for k := 0; k < counts[i]; k++ {
			seqs[i] = append(seqs[i], vmInstMarker(i))
		}
	}
	for i, s := range seqs {
		for k := range s {
			if s[k] != vmInstMarker(i) {
				t.Fatalf("seq %d entry %d overwritten by another region's append", i, k)
			}
		}
	}
	arenaCap := cap(sc.arena)
	seqs2 := sc.partition(counts)
	if cap(sc.arena) != arenaCap {
		t.Fatalf("repartition with equal counts grew the arena %d -> %d", arenaCap, cap(sc.arena))
	}
	if len(seqs2) != len(counts) {
		t.Fatalf("repartition returned %d seqs", len(seqs2))
	}
}

// vmInstMarker builds a distinguishable word per region index.
func vmInstMarker(i int) uint32 { return uint32(i + 1) }

// TestSeqArenaReuseGate gates the pooled sequence arena (scratch.go) in the
// pattern that used to defeat it: one serial caller squashing the four
// perfbench programs at θ ∈ {0, 5e-5, 1e-3} in rotation, with collections
// running between squashes. After one warm-up rotation, every squash of
// two more rotations must find the same arena again: neither dropped by a
// collection nor reallocated for a larger program.
func TestSeqArenaReuseGate(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	type input struct {
		obj    *objfile.Object
		counts profile.Counts
	}
	var inputs []input
	for _, name := range []string{"adpcm", "gsm", "pgp", "mpeg2dec"} {
		_, obj, counts := prepareMediabench(t, name)
		inputs = append(inputs, input{obj, counts})
	}
	arena := func() (*uint32, int) {
		sc := getEncodeScratch()
		defer putEncodeScratch(sc)
		return unsafe.SliceData(sc.arena), cap(sc.arena)
	}
	var first *uint32
	for rotation := 0; rotation < 3; rotation++ {
		for i, in := range inputs {
			for _, theta := range []float64{0, 5e-5, 1e-3} {
				conf := DefaultConfig()
				conf.Theta = theta
				if _, err := Squash(in.obj, in.counts, conf); err != nil {
					t.Fatal(err)
				}
				p, n := arena()
				switch {
				case rotation == 0:
					first = p
				case p != first:
					t.Fatalf("rotation %d, program %d, θ=%g: the arena (cap %d) is not the one the warm-up left", rotation, i, theta, n)
				}
			}
		}
	}
}
