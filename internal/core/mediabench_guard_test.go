package core

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/mediabench"
	"repro/internal/objfile"
	"repro/internal/profile"
)

// prepareMediabench assembles the named MediaBench program and profiles it
// on its profiling input: the emit → em-as → em-run -profile pipeline.
func prepareMediabench(t *testing.T, name string) (mediabench.Spec, *objfile.Object, profile.Counts) {
	t.Helper()
	spec, ok := mediabench.SpecByName(name)
	if !ok {
		t.Fatalf("no mediabench program %q", name)
	}
	obj, _, counts := prepare(t, spec.Generate(), spec.ProfilingInput())
	return spec, obj, counts
}

// squashToBytes squashes obj and returns the serialized image, the bytes a
// squash -o writes.
func squashToBytes(t *testing.T, obj *objfile.Object, counts profile.Counts, conf Config) []byte {
	t.Helper()
	out, err := Squash(obj, counts, conf)
	if err != nil {
		t.Fatalf("Squash: %v", err)
	}
	var buf bytes.Buffer
	if _, err := out.Image.WriteTo(&buf); err != nil {
		t.Fatalf("image serialize: %v", err)
	}
	return buf.Bytes()
}

// drainPools empties every sync.Pool in the process: two GC cycles clear
// the pools and their victim caches, so the next squash or run allocates
// fresh buffers, as the code did before pooling. It also drops the spare
// sequence scratch, which collections do not clear.
func drainPools() {
	spareScratch.Store(nil)
	runtime.GC()
	runtime.GC()
}

// loadSquashed reads a serialized squashed image back the way em-run does.
func loadSquashed(t *testing.T, raw []byte) *Output {
	t.Helper()
	im, err := objfile.ReadImage(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadImage: %v", err)
	}
	meta, err := UnmarshalMeta(im.Meta)
	if err != nil {
		t.Fatalf("UnmarshalMeta: %v", err)
	}
	return &Output{Image: im, Meta: meta}
}

// TestMediabenchFastPathGuard proves on real MediaBench programs that the
// fast paths change nothing observable. Every program is squashed in the
// three variants the runtime ships a fast path for: the default
// decompress-to-buffer image (split-stream coder, region memo), the §8
// interpret-in-place image (decoded-instruction memo), and the LZ
// dictionary-coder image (table-driven token decoder). Each variant is
// squashed twice, first with drained pools and then with pools warm from
// the first squash and the other programs, and the images must be
// byte-equal; the image then runs on the timing input with every fast path
// on (from drained pools) and with the reference paths, and memory,
// registers, output, exit status, instruction and cycle counts, the SP
// trace and every RuntimeStats field must match.
func TestMediabenchFastPathGuard(t *testing.T) {
	interp := DefaultConfig()
	interp.Interpret = true
	interp.Theta = 0.001
	interp.StubCapacity = 64
	lz := DefaultConfig()
	lz.Coder = CoderLZ
	variants := []struct {
		name string
		conf Config
	}{{"default", DefaultConfig()}, {"interp", interp}, {"lz", lz}}
	for _, name := range []string{"adpcm", "g721_enc", "gsm"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, obj, counts := prepareMediabench(t, name)
			input := spec.TimingInput()
			for _, v := range variants {
				drainPools()
				raw := squashToBytes(t, obj, counts, v.conf)
				if again := squashToBytes(t, obj, counts, v.conf); !bytes.Equal(raw, again) {
					t.Fatalf("%s: squashed image not reproducible", v.name)
				}
				out := loadSquashed(t, raw)
				drainPools()
				fastM, fastRT := runSquashedMode(t, out, input, true)
				slowM, slowRT := runSquashedMode(t, out, input, false)
				assertModesIdentical(t, v.name, fastM, slowM, fastRT, slowRT)
			}
		})
	}
}
