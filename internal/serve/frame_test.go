package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// encodeRequest renders one request as frame bytes.
func encodeRequest(t *testing.T, req *Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	sc := getFrameScratch()
	defer putFrameScratch(sc)
	if err := writeRequestFrame(bw, sc, req); err != nil {
		t.Fatalf("writeRequestFrame: %v", err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// v2Frame hand-crafts a frame from an envelope string and payload — for
// wire shapes the writer would refuse to produce.
func v2Frame(env string, pay []byte) []byte {
	b := make([]byte, frameHeaderLen, frameHeaderLen+len(env)+len(pay))
	b[0] = frameVersion
	b[2] = frameMagic2
	b[3] = frameMagic3
	binary.LittleEndian.PutUint32(b[4:8], uint32(len(env)))
	binary.LittleEndian.PutUint32(b[8:12], uint32(len(pay)))
	b = append(b, env...)
	return append(b, pay...)
}

// TestFrameV2RoundTrip: a request with every payload-bearing shape —
// inline object+profile, batch items both inline and named, config, flags —
// survives encode/decode bit-exact, with the decoded payloads aliasing the
// frame buffer (zero-copy) rather than copies.
func TestFrameV2RoundTrip(t *testing.T) {
	conf := core.DefaultConfig()
	conf.Theta = 0.02
	in := &Request{
		Op:      OpBatch,
		Obj:     []byte("object bytes"),
		Profile: []byte("profile bytes"),
		Config:  &conf,
		Bench:   "adpcm",
		Scale:   1.5,
		NoImage: true,
		Items: []BatchItem{
			{Obj: []byte("item-0 obj"), Profile: []byte("item-0 prof")},
			{Bench: "gsm", Scale: 2},
		},
	}
	data := encodeRequest(t, in)

	br := bufio.NewReader(bytes.NewReader(data))
	fb, env, pay, err := readFrameBody(br)
	if err != nil {
		t.Fatalf("readFrameBody: %v", err)
	}
	sc := getFrameScratch()
	defer putFrameScratch(sc)
	var out Request
	if err := decodeRequest(sc, env, pay, fb, &out); err != nil {
		t.Fatalf("decodeRequest: %v", err)
	}
	if out.Op != in.Op || out.Bench != in.Bench || out.Scale != in.Scale || !out.NoImage {
		t.Fatalf("scalar fields diverged: %+v", out)
	}
	if out.Config == nil || out.Config.Theta != conf.Theta {
		t.Fatalf("config diverged: %+v", out.Config)
	}
	if !bytes.Equal(out.Obj, in.Obj) || !bytes.Equal(out.Profile, in.Profile) {
		t.Fatalf("payloads diverged: obj=%q profile=%q", out.Obj, out.Profile)
	}
	if len(out.Items) != 2 ||
		!bytes.Equal(out.Items[0].Obj, in.Items[0].Obj) ||
		!bytes.Equal(out.Items[0].Profile, in.Items[0].Profile) ||
		out.Items[1].Bench != "gsm" || out.Items[1].Obj != nil {
		t.Fatalf("items diverged: %+v", out.Items)
	}
	// Zero-copy: the decoded object must alias the frame buffer.
	if &out.Obj[0] != &pay[0] {
		t.Fatal("decoded payload does not alias the frame buffer")
	}
	out.releasePayload()
	out.releasePayload() // idempotent
}

// TestFrameV2ProfileOpsRoundTrip: the profile-plane request fields — the
// Image and Input payload sections, ImageKey, RunMeta, Force — and the
// Feed/Resquash/ImageKey response fields survive encode/decode.
func TestFrameV2ProfileOpsRoundTrip(t *testing.T) {
	in := &Request{
		Op:       OpProfilePush,
		Profile:  []byte("EMP1 counts"),
		Image:    []byte("squashed image bytes"),
		Input:    []byte("run input"),
		ImageKey: "abc123",
		Run:      &RunMeta{Instructions: 1000, Cycles: 2500, Decompressions: 7, Evictions: 3, BitsRead: 99, Source: "host-1"},
		Force:    true,
	}
	data := encodeRequest(t, in)

	br := bufio.NewReader(bytes.NewReader(data))
	fb, env, pay, err := readFrameBody(br)
	if err != nil {
		t.Fatalf("readFrameBody: %v", err)
	}
	sc := getFrameScratch()
	defer putFrameScratch(sc)
	var out Request
	if err := decodeRequest(sc, env, pay, fb, &out); err != nil {
		t.Fatalf("decodeRequest: %v", err)
	}
	if out.Op != OpProfilePush || out.ImageKey != "abc123" || !out.Force {
		t.Fatalf("scalar fields diverged: %+v", out)
	}
	if !bytes.Equal(out.Profile, in.Profile) || !bytes.Equal(out.Image, in.Image) || !bytes.Equal(out.Input, in.Input) {
		t.Fatalf("payloads diverged: profile=%q image=%q input=%q", out.Profile, out.Image, out.Input)
	}
	if out.Run == nil || *out.Run != *in.Run {
		t.Fatalf("run meta diverged: %+v", out.Run)
	}
	out.releasePayload()

	resp := &Response{
		OK:       true,
		Image:    []byte("new image"),
		ImageKey: "def456",
		Feed: &FeedSnapshot{Images: []FeedImageStatus{{
			Key: "abc123", Samples: 4, Theta: 0.0001, Threshold: 0.25,
		}}},
		Resquash: &ResquashReport{NewKey: "def456", DriftScore: 0.42, OutputOK: true, MissBefore: 0.01, MissAfter: 0.002},
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeResponseFrame(bw, sc, resp); err != nil {
		t.Fatalf("writeResponseFrame: %v", err)
	}
	bw.Flush()
	fb2, env2, pay2, err := readFrameBody(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("readFrameBody (resp): %v", err)
	}
	defer fb2.release()
	var rout Response
	if err := decodeResponse(sc, env2, pay2, &rout); err != nil {
		t.Fatalf("decodeResponse: %v", err)
	}
	if rout.ImageKey != "def456" || rout.Feed == nil || len(rout.Feed.Images) != 1 ||
		rout.Feed.Images[0].Key != "abc123" || rout.Feed.Images[0].Threshold != 0.25 {
		t.Fatalf("feed diverged: %+v", rout.Feed)
	}
	if rout.Resquash == nil || rout.Resquash.NewKey != "def456" || !rout.Resquash.OutputOK ||
		rout.Resquash.MissAfter != 0.002 {
		t.Fatalf("resquash diverged: %+v", rout.Resquash)
	}
	if !bytes.Equal(rout.Image, resp.Image) {
		t.Fatalf("image diverged: %q", rout.Image)
	}

}

// TestFrameV2ResponseRoundTrip: responses round-trip with the image copied
// out of the frame buffer — a retained response must survive the buffer's
// recycling.
func TestFrameV2ResponseRoundTrip(t *testing.T) {
	in := &Response{
		OK:     true,
		Image:  []byte("the squashed image"),
		Stats:  &core.Stats{InputBytes: 100, SquashedBytes: 60},
		Cached: true,
		Results: []BatchResult{
			{OK: true, Image: []byte("batch image"), Shared: true},
			{OK: false, Err: "bad item"},
		},
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	sc := getFrameScratch()
	defer putFrameScratch(sc)
	if err := writeResponseFrame(bw, sc, in); err != nil {
		t.Fatalf("writeResponseFrame: %v", err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	fb, env, pay, err := readFrameBody(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("readFrameBody: %v", err)
	}
	var out Response
	if err := decodeResponse(sc, env, pay, &out); err != nil {
		t.Fatalf("decodeResponse: %v", err)
	}
	if !out.OK || !out.Cached || out.Stats == nil || out.Stats.SquashedBytes != 60 {
		t.Fatalf("scalar fields diverged: %+v", out)
	}
	if !bytes.Equal(out.Image, in.Image) {
		t.Fatalf("image diverged: %q", out.Image)
	}
	if len(out.Results) != 2 || !bytes.Equal(out.Results[0].Image, in.Results[0].Image) ||
		!out.Results[0].Shared || out.Results[1].Err != "bad item" || out.Results[1].Image != nil {
		t.Fatalf("results diverged: %+v", out.Results)
	}
	// Copy-out: recycling (and scribbling over) the frame buffer must not
	// touch the decoded response.
	for i := range pay {
		pay[i] = 0xAA
	}
	fb.release()
	if !bytes.Equal(out.Image, in.Image) || !bytes.Equal(out.Results[0].Image, in.Results[0].Image) {
		t.Fatal("response aliases the recycled frame buffer")
	}
}

// TestFrameV2RejectsHostileSections: overlapping, out-of-bounds,
// out-of-order, and trailing-garbage section tables are connection-level
// errors, never aliased or silently truncated reads.
func TestFrameV2RejectsHostileSections(t *testing.T) {
	cases := []struct {
		name string
		env  string
		pay  []byte
	}{
		{"out of bounds", `{"op":"squash","obj":{"o":0,"n":100},"profile":{"o":0,"n":0}}`, []byte("tiny")},
		{"overlapping", `{"op":"squash","obj":{"o":0,"n":3},"profile":{"o":1,"n":3}}`, []byte("abcd")},
		{"out of order", `{"op":"squash","obj":{"o":2,"n":2},"profile":{"o":0,"n":2}}`, []byte("abcd")},
		{"trailing bytes", `{"op":"squash","obj":{"o":0,"n":2},"profile":{"o":0,"n":0}}`, []byte("abcd")},
		{"zero len at offset", `{"op":"squash","obj":{"o":2,"n":0},"profile":{"o":0,"n":0}}`, []byte("ab")},
		{"garbage envelope", `{"op":`, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			br := bufio.NewReader(bytes.NewReader(v2Frame(c.env, c.pay)))
			fb, env, pay, err := readFrameBody(br)
			if err != nil {
				t.Fatalf("frame read rejected before decode: %v", err)
			}
			defer fb.release()
			sc := getFrameScratch()
			defer putFrameScratch(sc)
			var req Request
			err = decodeRequest(sc, env, pay, fb, &req)
			var pe *protoError
			if !errors.As(err, &pe) {
				t.Fatalf("decode error = %v, want a protoError", err)
			}
		})
	}

	// Hostile header lengths must be rejected without allocating the
	// claimed size.
	for _, c := range []struct {
		name        string
		env, pay    uint32
		wantMessage string
	}{
		{"oversized envelope and payload", 1 << 31, 1 << 31, "exceeds limit"},
		{"all-ones envelope length", 0xFFFFFFFF, 0, "exceeds limit"},
		{"payload just over limit", 1, MaxFrame, "exceeds limit"},
	} {
		t.Run(c.name, func(t *testing.T) {
			hdr := make([]byte, frameHeaderLen)
			hdr[0], hdr[2], hdr[3] = frameVersion, frameMagic2, frameMagic3
			binary.LittleEndian.PutUint32(hdr[4:8], c.env)
			binary.LittleEndian.PutUint32(hdr[8:12], c.pay)
			_, _, _, err := readFrameBody(bufio.NewReader(bytes.NewReader(hdr)))
			var pe *protoError
			if !errors.As(err, &pe) || !strings.Contains(pe.msg, c.wantMessage) {
				t.Fatalf("oversized header: err = %v, want a protoError containing %q", err, c.wantMessage)
			}
		})
	}
}

// TestProtoInteropByteIdentity is the acceptance invariant: the same
// workload returns byte-identical images through the client's single
// requests and batch framing, both on a server whose pools were warmed and
// dirtied by a much larger program and on one that starts with drained
// pools.
func TestProtoInteropByteIdentity(t *testing.T) {
	conf := core.DefaultConfig()
	obj, prof, want := buildWorkload(t, 13, conf)

	for _, pools := range []string{"pooled", "drained"} {
		t.Run(pools, func(t *testing.T) {
			if pools == "drained" {
				drainPools()
			}
			_, addr, stop := startServer(t, Options{Workers: 2})
			defer stop()
			if pools == "pooled" {
				pollutePools(t, addr)
			}

			cl, err := DialClient(addr)
			if err != nil {
				t.Fatalf("DialClient: %v", err)
			}
			defer cl.Close()
			// Twice: the second exchange is a warm cache hit.
			for pass := 0; pass < 2; pass++ {
				resp, err := cl.Do(&Request{Op: OpSquash, Obj: obj, Profile: prof})
				if err != nil || !resp.OK {
					t.Fatalf("pass %d: resp=%+v err=%v", pass, resp, err)
				}
				if !bytes.Equal(resp.Image, want) {
					t.Fatalf("pass %d: image diverged from one-shot squash", pass)
				}
			}
			if cl.BytesIn() == 0 || cl.BytesOut() == 0 {
				t.Fatalf("wire counters empty: in=%d out=%d", cl.BytesIn(), cl.BytesOut())
			}

			// Batch framing: every result byte-identical too.
			resp, err := cl.Do(&Request{Op: OpBatch, Items: []BatchItem{
				{Obj: obj, Profile: prof},
				{Obj: obj, Profile: prof},
			}})
			if err != nil || !resp.OK || len(resp.Results) != 2 {
				t.Fatalf("batch: resp=%+v err=%v", resp, err)
			}
			for i, r := range resp.Results {
				if !r.OK || !bytes.Equal(r.Image, want) {
					t.Fatalf("batch result %d diverged (ok=%v err=%q)", i, r.OK, r.Err)
				}
			}
		})
	}
}

// v1Frame renders a frame in the retired v1 framing — a 4-byte
// little-endian length followed by a JSON document — which the server must
// now refuse as foreign bytes.
func v1Frame(doc string) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(doc)))
	return append(b, doc...)
}

// expectRefused reads from a connection that just sent foreign bytes: the
// server must answer with one decodable error frame (OK=false, Err set)
// and then close, within a deadline — never hang, never hang up silently.
func expectRefused(t *testing.T, conn net.Conn, br *bufio.Reader) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fb, env, pay, err := readFrameBody(br)
	if err != nil {
		t.Fatalf("read error response: %v", err)
	}
	sc := getFrameScratch()
	defer putFrameScratch(sc)
	var resp Response
	err = decodeResponse(sc, env, pay, &resp)
	fb.release()
	if err != nil {
		t.Fatalf("decode error response: %v", err)
	}
	if resp.OK || resp.Err == "" {
		t.Fatalf("foreign frame not rejected: %+v", resp)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection still open after fatal protocol error (err=%v)", err)
	}
}

// TestV2ConnRejectsV1MidStream: a v1-framed request after a valid exchange
// is a fatal protocol error with an explicit error response before the
// close.
func TestV2ConnRejectsV1MidStream(t *testing.T) {
	_, addr, stop := startServer(t, Options{Workers: 1})
	defer stop()

	conn := dialRaw(t, addr)
	if err := conn.send(&Request{Op: OpPing}); err != nil {
		t.Fatalf("write ping: %v", err)
	}
	var resp Response
	if err := conn.recv(&resp); err != nil || !resp.OK {
		t.Fatalf("ping: resp=%+v err=%v", resp, err)
	}

	if _, err := conn.Write(v1Frame(`{"op":"ping"}`)); err != nil {
		t.Fatalf("write v1 ping: %v", err)
	}
	expectRefused(t, conn, conn.br)
}

// TestLegacyV1OpeningRejected: a connection that opens with a v1 frame
// gets an error frame and a close within a deadline, never a hang, and the
// same server keeps answering clients afterwards.
func TestLegacyV1OpeningRejected(t *testing.T) {
	conf := core.DefaultConfig()
	obj, prof, want := buildWorkload(t, 17, conf)
	_, addr, stop := startServer(t, Options{Workers: 1})
	defer stop()

	for _, c := range []struct {
		name  string
		bytes []byte
	}{
		{"ping", v1Frame(`{"op":"ping"}`)},
		{"short", v1Frame(`{}`)},
		{"length only", v1Frame("")},
	} {
		t.Run(c.name, func(t *testing.T) {
			conn, err := net.Dial(SplitAddr(addr))
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			if _, err := conn.Write(c.bytes); err != nil {
				t.Fatalf("write v1 opening: %v", err)
			}
			expectRefused(t, conn, bufio.NewReader(conn))
		})
	}

	cl, err := DialClient(addr)
	if err != nil {
		t.Fatalf("DialClient: %v", err)
	}
	defer cl.Close()
	resp, err := cl.Do(&Request{Op: OpSquash, Obj: obj, Profile: prof})
	if err != nil || !resp.OK {
		t.Fatalf("request after v1 openings: resp=%+v err=%v", resp, err)
	}
	if !bytes.Equal(resp.Image, want) {
		t.Fatal("image diverged from one-shot squash after v1 openings")
	}
}

// TestNoImage: a stats-only request skips image bytes on the wire but
// still runs the squash, reports full stats, and warms the result cache
// for later full requests.
func TestNoImage(t *testing.T) {
	conf := core.DefaultConfig()
	obj, prof, want := buildWorkload(t, 19, conf)
	s, addr, stop := startServer(t, Options{Workers: 2})
	defer stop()

	cl, err := DialClient(addr)
	if err != nil {
		t.Fatalf("DialClient: %v", err)
	}
	defer cl.Close()

	resp, err := cl.Do(&Request{Op: OpSquash, Obj: obj, Profile: prof, NoImage: true})
	if err != nil || !resp.OK {
		t.Fatalf("noimage request: resp=%+v err=%v", resp, err)
	}
	if resp.Image != nil {
		t.Fatalf("noimage response carries %d image bytes", len(resp.Image))
	}
	if resp.Stats == nil || resp.Stats.SquashedBytes == 0 {
		t.Fatalf("noimage response missing stats: %+v", resp.Stats)
	}

	// The squash ran and cached: a full request now hits and returns the
	// exact one-shot bytes.
	resp, err = cl.Do(&Request{Op: OpSquash, Obj: obj, Profile: prof})
	if err != nil || !resp.OK {
		t.Fatalf("follow-up request: resp=%+v err=%v", resp, err)
	}
	if !resp.Cached {
		t.Fatal("noimage squash did not warm the result cache")
	}
	if !bytes.Equal(resp.Image, want) {
		t.Fatal("cache warmed by a noimage request returned different bytes")
	}
	if snap := s.StatsSnapshot(); snap.Errors != 0 {
		t.Fatalf("server reported %d errors", snap.Errors)
	}
}

// TestNoImageBatch: the frame-level NoImage flag strips every batch
// result's image while leaving per-item stats and flags intact.
func TestNoImageBatch(t *testing.T) {
	conf := core.DefaultConfig()
	obj, prof, want := buildWorkload(t, 23, conf)
	_, addr, stop := startServer(t, Options{Workers: 2})
	defer stop()

	cl, err := DialClient(addr)
	if err != nil {
		t.Fatalf("DialClient: %v", err)
	}
	defer cl.Close()

	resp, err := cl.Do(&Request{Op: OpBatch, NoImage: true, Items: []BatchItem{
		{Obj: obj, Profile: prof},
		{Obj: obj, Profile: prof},
	}})
	if err != nil || !resp.OK || len(resp.Results) != 2 {
		t.Fatalf("noimage batch: resp=%+v err=%v", resp, err)
	}
	for i, r := range resp.Results {
		if !r.OK || r.Image != nil || r.Stats == nil {
			t.Fatalf("result %d: ok=%v image=%d stats=%v", i, r.OK, len(r.Image), r.Stats)
		}
	}
	if !resp.Results[1].Shared {
		t.Fatal("within-batch dedup lost under noimage")
	}

	// Full batch afterwards: warmed cache, byte-identical images.
	resp, err = cl.Do(&Request{Op: OpBatch, Items: []BatchItem{{Obj: obj, Profile: prof}}})
	if err != nil || !resp.OK || len(resp.Results) != 1 {
		t.Fatalf("follow-up batch: resp=%+v err=%v", resp, err)
	}
	if r := resp.Results[0]; !r.Cached || !bytes.Equal(r.Image, want) {
		t.Fatalf("follow-up batch result: cached=%v identical=%v", r.Cached, bytes.Equal(r.Image, want))
	}
}

// TestFrameBufPool: the frame read buffers recycle with idempotent release,
// and oversized buffers bypass the pool entirely.
func TestFrameBufPool(t *testing.T) {
	fb := getFrameBuf(100)
	if !fb.pooled {
		t.Fatal("small frame buffer not pooled")
	}
	if len(fb.data) < 100 {
		t.Fatalf("buffer too small: %d", len(fb.data))
	}
	fb.release()
	fb.release() // second release must be a no-op, not a double-put

	big := getFrameBuf(maxScratchBytes + 1)
	if big.pooled {
		t.Fatal("oversized frame buffer claims to be pooled")
	}
	if len(big.data) != maxScratchBytes+1 {
		t.Fatalf("oversized buffer len = %d, want exact size", len(big.data))
	}
	big.release()
}

// oldHitFrame returns hit with an "Excluded" label-to-reason object
// spliced into its stats, as a daemon from before core.Stats dropped the
// field wrote it.
func oldHitFrame(tb testing.TB, hit []byte) []byte {
	tb.Helper()
	envLen := binary.LittleEndian.Uint32(hit[4:8])
	env := string(hit[frameHeaderLen : frameHeaderLen+envLen])
	const key = `"stats":{`
	i := strings.Index(env, key)
	if i < 0 {
		tb.Fatalf("hit envelope has no stats: %s", env)
	}
	i += len(key)
	env = env[:i] + `"Excluded":{"adpcm_coder":"not profitable to compress","main":"calls setjmp"},` + env[i:]
	return v2Frame(env, hit[frameHeaderLen+envLen:])
}

// TestDecodeResponseFromOlderDaemon: a hit envelope that still carries the
// retired Stats.Excluded object decodes without error, to the same
// response as the envelope without it.
func TestDecodeResponseFromOlderDaemon(t *testing.T) {
	hit := hitResponseFrame(t)
	decode := func(frame []byte) *Response {
		t.Helper()
		sc := getFrameScratch()
		defer putFrameScratch(sc)
		fb, env, pay, err := readFrameBody(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatal(err)
		}
		defer fb.release()
		var resp Response
		if err := decodeResponse(sc, env, pay, &resp); err != nil {
			t.Fatalf("decodeResponse: %v", err)
		}
		return &resp
	}
	want, got := decode(hit), decode(oldHitFrame(t, hit))
	if !bytes.Equal(got.Image, want.Image) {
		t.Fatal("older daemon's hit decodes to a different image")
	}
	got.Image, want.Image = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("older daemon's hit decodes differently:\n got %+v %+v\nwant %+v %+v", got, got.Stats, want, want.Stats)
	}
}

// FuzzFrame drives both readers of the codec over arbitrary byte streams:
// the server's request reader and the client's response reader, since the
// bytes a daemon or router backend answers with are outside input too. No
// input may panic, and every malformed frame — v1-shaped input included —
// must surface as a clean connection-level error, never a hang or an
// aliased read.
func FuzzFrame(f *testing.F) {
	// A well-formed request, plus a ping in the retired v1 framing.
	v1ping := v1Frame(`{"op":"ping"}`)
	var v2buf bytes.Buffer
	bw := bufio.NewWriter(&v2buf)
	sc := newFrameScratch()
	if err := writeRequestFrame(bw, sc, &Request{Op: OpSquash, Obj: []byte("obj"), Profile: []byte("prof")}); err != nil {
		f.Fatal(err)
	}
	bw.Flush()
	v2req := v2buf.Bytes()

	f.Add(v1ping)
	f.Add(v2req)
	f.Add(append(append([]byte{}, v2req...), v1ping...)) // v1 JSON after a valid frame
	f.Add(append(append([]byte{}, v1ping...), v2req...)) // valid frame after v1 JSON
	f.Add(v2req[:len(v2req)-3])                          // truncated payload
	f.Add(v2req[:frameHeaderLen-2])                      // truncated header
	f.Add([]byte{0xFF, 0xFF, 0x51, 0xF2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(v2Frame(`{"op":"squash","obj":{"o":0,"n":99},"profile":{"o":0,"n":0}}`, []byte("x")))
	f.Add(v2Frame(`{"op":"squash","obj":{"o":0,"n":2},"profile":{"o":1,"n":1}}`, []byte("ab")))
	f.Add(v2Frame(`not json`, nil))
	f.Add(v2Frame(``, nil))

	// Responses: a real cached hit, then hostile variants of its shape.
	_, _, out := allocFixture(f)
	var img bytes.Buffer
	if _, err := out.Image.WriteTo(&img); err != nil {
		f.Fatal(err)
	}
	stats, foot := out.Stats, out.Foot
	v2buf.Reset()
	if err := writeResponseFrame(bw, sc, &Response{OK: true, Image: img.Bytes(), Stats: &stats, Foot: &foot, Cached: true}); err != nil {
		f.Fatal(err)
	}
	bw.Flush()
	hit := bytes.Clone(v2buf.Bytes())
	f.Add(hit)
	f.Add(hit[:len(hit)-3])               // truncated trailer
	f.Add(append(bytes.Clone(hit), 0, 1)) // trailing bytes after the frame
	f.Add(oldHitFrame(f, hit))            // pre-change daemon's Stats.Excluded
	f.Add(v2Frame(`{"ok":true,"results":[{"ok":true,"image":{"o":0,"n":2}},{"ok":true,"image":{"o":1,"n":1}}]}`, []byte("ab")))
	f.Add(v2Frame(`{"ok":true,"image":{"o":1,"n":1},"results":[{"ok":true,"image":{"o":0,"n":1}}]}`, []byte("ab")))
	f.Add(v2Frame(`{"ok":true,"image":{"o":0,"n":1}}`, []byte("ab"))) // trailing payload bytes

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzServerRead(data)
		fuzzClientRead(t, data)
	})
}

// fuzzServerRead reads request frames from data as a server connection
// does, answering each.
func fuzzServerRead(data []byte) {
	codec := newServerCodec(bytes.NewReader(data), io.Discard)
	defer codec.close()
	for i := 0; i < 64; i++ {
		var req Request
		err := codec.readRequest(&req)
		if err != nil {
			var pe *protoError
			if errors.As(err, &pe) {
				// The server's answer to a violation, before it closes.
				codec.writeResponse(&Response{Err: pe.msg})
			}
			return
		}
		// Frames that parse get a response written, exercising the
		// encode side, and their payload released as the server would
		// after processing.
		codec.writeResponse(&Response{OK: true})
		req.releasePayload()
	}
}

// fuzzClientRead reads response frames from data as Client.Do does. A
// decoded response must own its images: scribbling over the frame buffer
// it came from leaves them unchanged.
func fuzzClientRead(t *testing.T, data []byte) {
	br := bufio.NewReaderSize(bytes.NewReader(data), frameIOSize)
	sc := getFrameScratch()
	defer putFrameScratch(sc)
	for i := 0; i < 64; i++ {
		fb, env, pay, err := readFrameBody(br)
		if err != nil {
			return
		}
		var resp Response
		err = decodeResponse(sc, env, pay, &resp)
		if err == nil {
			imgs := [][]byte{resp.Image}
			for _, r := range resp.Results {
				imgs = append(imgs, r.Image)
			}
			want := make([][]byte, len(imgs))
			for j, img := range imgs {
				want[j] = bytes.Clone(img)
			}
			for j := range pay {
				pay[j] ^= 0xFF
			}
			for j, img := range imgs {
				if !bytes.Equal(img, want[j]) {
					t.Fatal("decoded image aliases the frame buffer")
				}
			}
		}
		fb.release()
		if err != nil {
			return
		}
	}
}
