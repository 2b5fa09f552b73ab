package serve

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/objfile"
	"repro/internal/profile"
	"repro/internal/testprog"
	"repro/internal/vm"
)

// BenchmarkRequestScratch is the paired allocation benchmark for the
// daemon's per-request serialization scratch: one op serializes a squashed
// image the way a cache-miss response does. "pooled" recycles the scratch
// buffer and pays only the exact-size copy the cache retains; "fresh" grows
// a new buffer from zero per request, the pre-pool behaviour. CI gates the
// pooled allocs/op ceiling and the fresh/pooled reduction via benchhist.
func BenchmarkRequestScratch(b *testing.B) {
	src := testprog.Random(7)
	obj, err := asm.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		b.Fatal(err)
	}
	m := vm.New(im, []byte("request scratch bench"))
	m.EnableProfile()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	out, err := core.Squash(obj, m.Profile, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}

	serialize := func(b *testing.B, sc *reqScratch) {
		image, err := serializeInto(&sc.img, out.Image)
		if err != nil {
			b.Fatal(err)
		}
		if len(image) == 0 {
			b.Fatal("empty image")
		}
	}
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc := getReqScratch()
			serialize(b, sc)
			putReqScratch(sc)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serialize(b, new(reqScratch))
		}
	})
}

// BenchmarkFrameCodecAlloc is the allocation benchmark for the wire codec:
// one warm cache-hit squash exchange as the server sees it — read
// and decode a request frame, encode and write the cached response, through
// pooled buffers and zero-copy payload sections. CI gates its allocs/op
// ceiling via benchhist.
func BenchmarkFrameCodecAlloc(b *testing.B) {
	src := testprog.Random(7)
	obj, err := asm.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		b.Fatal(err)
	}
	m := vm.New(im, []byte("frame codec bench"))
	m.EnableProfile()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	var ob, pb, img bytes.Buffer
	if _, err := obj.WriteTo(&ob); err != nil {
		b.Fatal(err)
	}
	if _, err := profile.Counts(m.Profile).WriteTo(&pb); err != nil {
		b.Fatal(err)
	}
	out, err := core.Squash(obj, m.Profile, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := out.Image.WriteTo(&img); err != nil {
		b.Fatal(err)
	}

	req := &Request{Op: OpSquash, Obj: ob.Bytes(), Profile: pb.Bytes()}
	stats, foot := out.Stats, out.Foot
	resp := &Response{OK: true, Image: img.Bytes(), Stats: &stats, Foot: &foot, Cached: true}

	var frame bytes.Buffer
	fw := bufio.NewWriter(&frame)
	sc := getFrameScratch()
	defer putFrameScratch(sc)
	if err := writeRequestFrame(fw, sc, req); err != nil {
		b.Fatal(err)
	}
	fw.Flush()
	reqFrame := frame.Bytes()

	rd := bytes.NewReader(reqFrame)
	br := bufio.NewReaderSize(rd, frameIOSize)
	bw := bufio.NewWriterSize(io.Discard, frameIOSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(reqFrame)
		br.Reset(rd)
		fb, env, pay, err := readFrameBody(br)
		if err != nil {
			b.Fatal(err)
		}
		var r Request
		if err := decodeRequest(sc, env, pay, fb, &r); err != nil {
			b.Fatal(err)
		}
		if err := writeResponseFrame(bw, sc, resp); err != nil {
			b.Fatal(err)
		}
		bw.Flush()
		r.releasePayload()
	}
}
