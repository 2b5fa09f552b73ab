package serve

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/objfile"
	"repro/internal/profile"
	"repro/internal/race"
	"repro/internal/testprog"
	"repro/internal/vm"
)

// allocFixture squashes a small random program: the object, its profile
// and the squash result the allocation gates serialize and exchange.
func allocFixture(tb testing.TB) (*objfile.Object, []uint64, *core.Output) {
	tb.Helper()
	obj, err := asm.Assemble(testprog.Random(7))
	if err != nil {
		tb.Fatal(err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		tb.Fatal(err)
	}
	m := vm.New(im, []byte("alloc gate"))
	m.EnableProfile()
	if err := m.Run(); err != nil {
		tb.Fatal(err)
	}
	out, err := core.Squash(obj, m.Profile, core.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return obj, m.Profile, out
}

// TestRequestScratchAllocGate gates the daemon's per-request serialization
// scratch: one op serializes a squashed image the way a cache-miss
// response does. The pooled scratch must pay at most 2 allocs/op (it keeps
// only the exact-size copy the cache retains), and a scratch buffer grown
// from zero per request, the pre-pool behaviour, must allocate at least
// twice as much (1 vs 3 measured).
func TestRequestScratchAllocGate(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	_, _, out := allocFixture(t)
	serialize := func(sc *reqScratch) {
		image, err := serializeInto(&sc.img, out.Image)
		if err != nil {
			t.Fatal(err)
		}
		if len(image) == 0 {
			t.Fatal("empty image")
		}
	}
	pooled := testing.AllocsPerRun(200, func() {
		sc := getReqScratch()
		serialize(sc)
		putReqScratch(sc)
	})
	fresh := testing.AllocsPerRun(200, func() { serialize(new(reqScratch)) })
	t.Logf("allocs/op: pooled %v, fresh %v", pooled, fresh)
	if pooled > 2 {
		t.Errorf("pooled request scratch: %v allocs/op, ceiling 2", pooled)
	}
	if fresh < 2*pooled {
		t.Errorf("fresh request scratch: %v allocs/op, under 2x pooled %v: pooling stopped paying off", fresh, pooled)
	}
}

// frameExchange returns one warm cache-hit squash exchange as the server
// sees it: read and decode a request frame, encode and write the cached
// response, through pooled buffers and zero-copy payload sections. The
// returned release puts the exchange's frame scratch back.
func frameExchange(tb testing.TB) (exchange, release func()) {
	tb.Helper()
	obj, prof, out := allocFixture(tb)
	var ob, pb, img bytes.Buffer
	if _, err := obj.WriteTo(&ob); err != nil {
		tb.Fatal(err)
	}
	if _, err := profile.Counts(prof).WriteTo(&pb); err != nil {
		tb.Fatal(err)
	}
	if _, err := out.Image.WriteTo(&img); err != nil {
		tb.Fatal(err)
	}

	req := &Request{Op: OpSquash, Obj: ob.Bytes(), Profile: pb.Bytes()}
	stats, foot := out.Stats, out.Foot
	resp := &Response{OK: true, Image: img.Bytes(), Stats: &stats, Foot: &foot, Cached: true}

	var frame bytes.Buffer
	fw := bufio.NewWriter(&frame)
	sc := getFrameScratch()
	if err := writeRequestFrame(fw, sc, req); err != nil {
		tb.Fatal(err)
	}
	fw.Flush()
	reqFrame := frame.Bytes()

	rd := bytes.NewReader(reqFrame)
	br := bufio.NewReaderSize(rd, frameIOSize)
	bw := bufio.NewWriterSize(io.Discard, frameIOSize)
	exchange = func() {
		rd.Reset(reqFrame)
		br.Reset(rd)
		fb, env, pay, err := readFrameBody(br)
		if err != nil {
			tb.Fatal(err)
		}
		var r Request
		if err := decodeRequest(sc, env, pay, fb, &r); err != nil {
			tb.Fatal(err)
		}
		if err := writeResponseFrame(bw, sc, resp); err != nil {
			tb.Fatal(err)
		}
		bw.Flush()
		r.releasePayload()
	}
	return exchange, func() { putFrameScratch(sc) }
}

// TestFrameCodecAllocGate gates the wire codec: one warm cache-hit
// exchange must stay at most 2 allocs/op (0 measured). The codec has no
// unpooled variant, so the gate is a ceiling only.
func TestFrameCodecAllocGate(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	exchange, release := frameExchange(t)
	defer release()
	if n := testing.AllocsPerRun(200, exchange); n > 2 {
		t.Errorf("frame codec: %v allocs/op, ceiling 2", n)
	} else {
		t.Logf("allocs/op: %v", n)
	}
}

// hitResponseFrame returns the frame a daemon writes for a cached-hit
// squash of adpcm at θ=5e-5, a squash that leaves 14 cold blocks
// uncompressed (unprofitable to compress).
func hitResponseFrame(tb testing.TB) []byte {
	tb.Helper()
	b, _, err := experiments.PrepareSpec("adpcm", 1, "")
	if err != nil {
		tb.Fatal(err)
	}
	conf := core.DefaultConfig()
	conf.Theta = 5e-5
	out, err := core.Squash(b.SqObj, b.Profile, conf)
	if err != nil {
		tb.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := out.Image.WriteTo(&img); err != nil {
		tb.Fatal(err)
	}
	stats, foot := out.Stats, out.Foot
	resp := &Response{OK: true, Image: img.Bytes(), Stats: &stats, Foot: &foot, Cached: true}
	var frame bytes.Buffer
	bw := bufio.NewWriter(&frame)
	sc := getFrameScratch()
	defer putFrameScratch(sc)
	if err := writeResponseFrame(bw, sc, resp); err != nil {
		tb.Fatal(err)
	}
	bw.Flush()
	return frame.Bytes()
}

// TestResponseDecodeAllocGate gates the client's side of a warm hit: read
// one cached-hit response frame and decode it into a fresh Response, as
// Client.Do does. What remains is the exact-size image copy the caller
// owns, the decoded Stats and Footprint and the Response itself; the
// ceiling keeps an unbounded per-function diagnostic from returning to
// the hit envelope (core.Stats' label-to-reason map of excluded code cost
// 52 allocs/op here; 4 measured without it).
func TestResponseDecodeAllocGate(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	frame := hitResponseFrame(t)
	rd := bytes.NewReader(frame)
	br := bufio.NewReaderSize(rd, frameIOSize)
	sc := getFrameScratch()
	defer putFrameScratch(sc)
	n := testing.AllocsPerRun(200, func() {
		rd.Reset(frame)
		br.Reset(rd)
		fb, env, pay, err := readFrameBody(br)
		if err != nil {
			t.Fatal(err)
		}
		resp := &Response{}
		err = decodeResponse(sc, env, pay, resp)
		fb.release()
		if err != nil || !resp.OK || len(resp.Image) == 0 || resp.Stats == nil {
			t.Fatalf("decode: err=%v ok=%v image=%d", err, resp.OK, len(resp.Image))
		}
		responseSink = resp
	})
	t.Logf("allocs/op: %v", n)
	if n > 6 {
		t.Errorf("response decode: %v allocs/op, ceiling 6", n)
	}
}

// responseSink keeps the gated decode's Response on the heap, as the one
// Client.Do returns is.
var responseSink *Response

// BenchmarkFrameCodecAlloc times the exchange TestFrameCodecAllocGate
// gates.
func BenchmarkFrameCodecAlloc(b *testing.B) {
	exchange, release := frameExchange(b)
	defer release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exchange()
	}
}
