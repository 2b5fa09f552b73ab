package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/objfile"
	"repro/internal/regions"
	"repro/internal/testprog"
	"repro/internal/vm"
)

// FuzzSquash is the native fuzz entry for `go test -fuzz=FuzzSquash`: the
// fuzzer picks a program seed, a config word, and a run input, and the
// target checks that the squashed binary reproduces the baseline behaviour,
// that its fast-path run is identical to a reference run
// (assertModesIdentical), and that its image is the one the Lower-and-Link
// reference writes (checkWriterOracle).
// The CI fuzz-smoke job runs it for a short fixed budget.
func FuzzSquash(f *testing.F) {
	f.Add(int64(0), uint16(0), []byte(""))
	f.Add(int64(3), uint16(0x5a5a), []byte("squash me 123"))
	f.Add(int64(17), uint16(0xffff), []byte{0, 1, 2, 3, 250, 251, 252, 253})
	// θ=1 with 64-byte buffers: 141 refills, most of them memo replays, so
	// the seed corpus alone runs the fast refill path against the reference.
	f.Add(int64(7), uint16(0x0003), []byte("0123456789abcdefghij"))
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
		// The image writer and the Lower-and-Link reference agree.
		checkWriterOracle(t, obj, prof.Profile, conf)

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
		// The rest of the contract: the reference runtime and interpreter
		// reach the same simulated state, counters and runtime stats.
		ref, refRT := runSquashedMode(t, out, input, false)
		assertModesIdentical(t, fmt.Sprintf("seed %d conf %+v", seed, conf), sq, ref, rt, refRT)
	})
}

// seedOutputs squashes testprog.Random(1..4) at theta under the stream
// coder, the LZ coder, interpret mode and the stream coder with MTF, one
// program per configuration.
func seedOutputs(tb testing.TB, theta float64) []*Output {
	var outs []*Output
	for i, conf := range []Config{DefaultConfig(), DefaultConfig(), DefaultConfig(), DefaultConfig()} {
		conf.Theta = theta
		switch i {
		case 1:
			conf.Coder = CoderLZ
		case 2:
			conf.Interpret = true
		case 3:
			conf.MTF = true
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
		outs = append(outs, out)
	}
	return outs
}

// metaSeeds returns the serialized metadata of seedOutputs at theta 0.001.
func metaSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, out := range seedOutputs(tb, 0.001) {
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
	// Reserved bits: flag bit 1 of the metadata, and a split-stream table
	// blob whose flag byte is 7.
	reserved := bytes.Clone(seeds[0])
	reserved[metaFlagsOffset] |= 2
	f.Add(reserved)
	badTables := bytes.Clone(seeds[0])
	m, err := UnmarshalMeta(badTables)
	if err != nil {
		f.Fatal(err)
	}
	badTables[len(badTables)-len(m.Tables)] = 7
	f.Add(badTables)
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

// farStubArea moves the restore-stub area 6 MiB past the decompressor:
// inside VM memory and clear of the other areas, but out of a bsr's
// 21-bit reach of every decompressor entry.
func farStubArea(m *Meta) { m.StubAreaAddr = m.DecompAddr + 0x600000 }

// withMeta serializes im with its metadata replaced by meta's encoding.
func withMeta(tb testing.TB, im *objfile.Image, meta *Meta) []byte {
	tb.Helper()
	cp := *im
	var err error
	if cp.Meta, err = meta.MarshalBinary(); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cp.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRunImage runs image bytes the way em-run does: ReadImage,
// UnmarshalMeta, NewRuntime, vm.New and Run, under a 200 000-instruction
// limit. A hostile image must give an error at some step, never a panic
// or a hang, and must leave the VM's shared zero page all zero.
func FuzzRunImage(f *testing.F) {
	outs := seedOutputs(f, 1)
	for _, out := range outs {
		f.Add(withMeta(f, out.Image, out.Meta), []byte("fuzz seed input"))
	}
	far := *outs[0].Meta
	farStubArea(&far)
	f.Add(withMeta(f, outs[0].Image, &far), []byte("fuzz seed input"))
	f.Fuzz(func(t *testing.T, data, input []byte) {
		if len(input) > 256 {
			input = input[:256]
		}
		im, err := objfile.ReadImage(bytes.NewReader(data))
		if err != nil {
			return
		}
		meta, err := UnmarshalMeta(im.Meta)
		if err != nil {
			return
		}
		rt, err := NewRuntime(meta)
		if err != nil {
			return
		}
		m := vm.New(im, input)
		m.MaxInstructions = 200_000
		rt.Install(m)
		m.Run()
		if !vm.ZeroPageIntact() {
			t.Fatal("the shared zero page was written")
		}
	})
}
