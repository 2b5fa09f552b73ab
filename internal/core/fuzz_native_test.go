package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/asm"
	"repro/internal/objfile"
	"repro/internal/regions"
	"repro/internal/testprog"
	"repro/internal/vm"
)

// FuzzSquash is the native fuzz entry for `go test -fuzz=FuzzSquash`: the
// fuzzer picks a program seed, a config word, and a run input, and the
// target checks that the squashed binary reproduces the baseline behaviour.
// The CI fuzz-smoke job runs it for a short fixed budget.
func FuzzSquash(f *testing.F) {
	f.Add(int64(0), uint16(0), []byte(""))
	f.Add(int64(3), uint16(0x5a5a), []byte("squash me 123"))
	f.Add(int64(17), uint16(0xffff), []byte{0, 1, 2, 3, 250, 251, 252, 253})
	f.Fuzz(func(t *testing.T, seed int64, confBits uint16, input []byte) {
		if len(input) > 256 {
			input = input[:256]
		}
		src := testprog.Random(seed)
		obj, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("seed %d: assemble: %v", seed, err)
		}
		im, err := objfile.Link("main", obj)
		if err != nil {
			t.Fatalf("seed %d: link: %v", seed, err)
		}
		prof := vm.New(im, input)
		prof.EnableProfile()
		if err := prof.Run(); err != nil {
			t.Fatalf("seed %d: profile run: %v", seed, err)
		}

		conf := DefaultConfig()
		conf.Theta = []float64{0, 0.001, 0.5, 1}[confBits&3]
		conf.Regions.K = []int{64, 96, 128, 512}[confBits>>2&3]
		conf.Regions.Pack = confBits>>4&1 == 0
		conf.BufferSafe = confBits>>5&1 == 0
		conf.MTF = confBits>>6&1 == 1
		conf.CompileTimeRestoreStubs = confBits>>7&1 == 1
		conf.Interpret = confBits>>8&1 == 1
		if confBits>>9&1 == 1 {
			conf.Regions.Strategy = regions.StrategyLoopAware
		}
		conf.Workers = []int{1, 0, 2, 8}[confBits>>10&3]
		out, err := Squash(obj, prof.Profile, conf)
		if err != nil {
			t.Fatalf("seed %d: squash (%+v): %v", seed, conf, err)
		}

		base := vm.New(im, input)
		base.StackCheck = true
		if err := base.Run(); err != nil {
			t.Fatalf("seed %d: baseline: %v", seed, err)
		}
		rt, err := NewRuntime(out.Meta)
		if err != nil {
			t.Fatalf("seed %d: runtime: %v", seed, err)
		}
		sq := vm.New(out.Image, input)
		sq.StackCheck = true
		rt.Install(sq)
		if err := sq.Run(); err != nil {
			t.Fatalf("seed %d conf %+v: squashed run: %v", seed, conf, err)
		}
		if string(base.Output) != string(sq.Output) || base.Status != sq.Status {
			t.Fatalf("seed %d conf %+v: behaviour diverged", seed, conf)
		}
	})
}

// metaSeeds squashes a few random programs under the stream coder, the LZ
// coder and interpret mode, and returns their serialized metadata.
func metaSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for i, conf := range []Config{DefaultConfig(), DefaultConfig(), DefaultConfig()} {
		conf.Theta = 0.001
		switch i {
		case 1:
			conf.Coder = CoderLZ
		case 2:
			conf.Interpret = true
		}
		obj, err := asm.Assemble(testprog.Random(int64(i + 1)))
		if err != nil {
			tb.Fatal(err)
		}
		im, err := objfile.Link("main", obj)
		if err != nil {
			tb.Fatal(err)
		}
		m := vm.New(im, []byte("fuzz seed input"))
		m.EnableProfile()
		if err := m.Run(); err != nil {
			tb.Fatal(err)
		}
		out, err := Squash(obj, m.Profile, conf)
		if err != nil {
			tb.Fatal(err)
		}
		b, err := out.Meta.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// FuzzUnmarshalMeta feeds squash metadata bytes through UnmarshalMeta and
// NewRuntime, the runtime's view of an image it is asked to run: malformed
// metadata must give an error, never a panic or an allocation the input
// does not pay for, and whatever decodes must re-encode stably.
func FuzzUnmarshalMeta(f *testing.F) {
	seeds := metaSeeds(f)
	for _, b := range seeds {
		f.Add(b)
	}
	// A restore-stub capacity of 2^32-1 slots: NewRuntime would size its
	// slot table by it.
	hostile := bytes.Clone(seeds[0])
	binary.LittleEndian.PutUint32(hostile[12:], 0xFFFFFFFF)
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, err := UnmarshalMeta(data)
		if err != nil {
			return
		}
		enc, err := meta.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := UnmarshalMeta(enc)
		if err != nil {
			t.Fatalf("re-encoded metadata does not decode: %v", err)
		}
		if enc2, _ := again.MarshalBinary(); !bytes.Equal(enc, enc2) {
			t.Fatal("metadata encoding is not stable")
		}
		NewRuntime(meta)
	})
}
