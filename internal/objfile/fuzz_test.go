package objfile_test

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/objfile"
	"repro/internal/testprog"
	"repro/internal/vm"
)

// imageSeeds links two random programs and squashes a third, so the corpus
// starts from plain images and from one that carries squash metadata.
func imageSeeds(tb testing.TB) []*objfile.Image {
	var seeds []*objfile.Image
	for seed := int64(1); seed <= 3; seed++ {
		obj, err := asm.Assemble(testprog.Random(seed))
		if err != nil {
			tb.Fatal(err)
		}
		im, err := objfile.Link("main", obj)
		if err != nil {
			tb.Fatal(err)
		}
		if seed < 3 {
			seeds = append(seeds, im)
			continue
		}
		m := vm.New(im, []byte("fuzz seed input"))
		m.EnableProfile()
		if err := m.Run(); err != nil {
			tb.Fatal(err)
		}
		conf := core.DefaultConfig()
		conf.Theta = 0.001
		out, err := core.Squash(obj, m.Profile, conf)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, out.Image)
	}
	return seeds
}

// FuzzReadImage feeds image bytes through ReadImage: a malformed image
// must give an error, never a panic or an allocation the input does not
// pay for, and whatever decodes must re-encode stably.
func FuzzReadImage(f *testing.F) {
	for _, im := range imageSeeds(f) {
		var buf bytes.Buffer
		if _, err := im.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Empty text and data, then a symbol count of 2^32-1 with no symbols
	// behind it: the count must not size an allocation.
	f.Add([]byte("EMX1\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := objfile.ReadImage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if _, err := im.WriteTo(&enc); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := objfile.ReadImage(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %v", err)
		}
		var enc2 bytes.Buffer
		again.WriteTo(&enc2)
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatal("image encoding is not stable")
		}
	})
}
