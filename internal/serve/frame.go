package serve

// Wire protocol: binary frames with zero-copy payload sections.
//
// A frame is a fixed 12-byte header followed by a small JSON envelope
// and a raw payload trailer:
//
//	byte  0      protocol version (0x02)
//	byte  1      flags (reserved, must be zero)
//	bytes 2-3    magic 0x51 0xF2
//	bytes 4-7    envelope length  (uint32 little-endian)
//	bytes 8-11   payload trailer length (uint32 little-endian)
//	...          envelope: one JSON document (op, config, flags, errors)
//	...          payload trailer: raw section bytes, back to back
//
// Every []byte payload of the request/response structs — Obj, Profile,
// Image, the per-BatchItem and per-BatchResult payloads — travels in the
// trailer and is referenced from the envelope as an (offset, length)
// section in a fixed canonical order with no gaps and no overlap. Payload
// bytes therefore cross the wire with zero base64: the writer emits each
// slice straight from its source (a cache entry, a client's file bytes)
// without materializing the frame, and the server slices sections — not
// copies — out of the pooled frame read buffer. Clients copy sections out
// at exact size (the "at most one copy" of a read), because a response
// must outlive the connection's recycled buffers.
//
// This is the only framing. The reader treats every header byte as
// untrusted input: the version, flag and magic bytes are checked before it
// waits for the rest of the header, the lengths are bounded by MaxFrame
// before anything is allocated, and every section reference is checked
// against the canonical layout. Any violation is fatal to the connection —
// the server answers with one error frame and closes — so a peer speaking
// some other framing (such as a length-prefixed JSON document) gets an
// error, never a hang on bytes that will not come.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/core"
)

const (
	// frameVersion is header byte 0; frames carrying any other value are
	// refused.
	frameVersion   = 2
	frameMagic2    = 0x51
	frameMagic3    = 0xF2
	frameHeaderLen = 12
	// frameIOSize is the bufio size for frame connections: large enough
	// that a header + envelope + typical payload flushes as one write.
	frameIOSize = 64 << 10
)

// protoError is a wire-protocol violation. The server reports it
// best-effort in an error frame and closes the connection.
type protoError struct {
	msg string
}

func (e *protoError) Error() string { return "serve: " + e.msg }

// secRef is one payload section: (offset, length) into the frame's payload
// trailer. A zero Len means the field is absent.
type secRef struct {
	Off uint32 `json:"o"`
	Len uint32 `json:"n"`
}

var errSecRef = errors.New("malformed section ref")

// UnmarshalJSON parses the {"o":N,"n":N} shape by hand. encoding/json's
// number path converts each digit run to a string before strconv, which
// puts several allocations on every warm frame read; section refs are the
// only numbers in a hot envelope, so they decode allocation-free here. The
// grammar is exactly the two known keys (any order, either optional) with
// bare uint32 values — a ref carrying anything else is malformed, not
// extensible.
func (r *secRef) UnmarshalJSON(b []byte) error {
	*r = secRef{}
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return errSecRef
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		i++
	} else {
		for {
			// Key: a quoted single letter, "o" or "n".
			if i+2 >= len(b) || b[i] != '"' || b[i+2] != '"' {
				return errSecRef
			}
			key := b[i+1]
			i = skipSpace(b, i+3)
			if i >= len(b) || b[i] != ':' {
				return errSecRef
			}
			i = skipSpace(b, i+1)
			start := i
			var v uint64
			for i < len(b) && b[i] >= '0' && b[i] <= '9' {
				v = v*10 + uint64(b[i]-'0')
				if v > 0xFFFFFFFF {
					return errSecRef
				}
				i++
			}
			if i == start || (b[start] == '0' && i-start > 1) {
				return errSecRef
			}
			switch key {
			case 'o':
				r.Off = uint32(v)
			case 'n':
				r.Len = uint32(v)
			default:
				return errSecRef
			}
			i = skipSpace(b, i)
			if i < len(b) && b[i] == ',' {
				i = skipSpace(b, i+1)
				continue
			}
			if i < len(b) && b[i] == '}' {
				i++
				break
			}
			return errSecRef
		}
	}
	if skipSpace(b, i) != len(b) {
		return errSecRef
	}
	return nil
}

// skipSpace advances past JSON whitespace starting at i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// wireOp interns the fixed op vocabulary during envelope decode, so a warm
// frame read does not allocate for the op string.
type wireOp string

func (o *wireOp) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("op is not a JSON string")
	}
	s := b[1 : len(b)-1]
	for _, op := range knownOps {
		if string(s) == op {
			*o = wireOp(op)
			return nil
		}
	}
	// Unknown op: keep the raw spelling so the server's error message can
	// echo it. (Escape sequences stay unprocessed; an op that needs them is
	// by construction not one of ours.)
	*o = wireOp(s)
	return nil
}

// reqEnv is the request envelope: Request with every []byte field
// replaced by its payload section reference.
type reqEnv struct {
	Op       wireOp       `json:"op"`
	Obj      secRef       `json:"obj"`
	Profile  secRef       `json:"profile"`
	Image    secRef       `json:"image"`
	Input    secRef       `json:"input"`
	Config   *core.Config `json:"config,omitempty"`
	Bench    string       `json:"bench,omitempty"`
	Scale    float64      `json:"scale,omitempty"`
	NoImage  bool         `json:"no_image,omitempty"`
	Items    []itemEnv    `json:"items,omitempty"`
	Backend  string       `json:"backend,omitempty"`
	ImageKey string       `json:"image_key,omitempty"`
	Run      *RunMeta     `json:"run,omitempty"`
	Force    bool         `json:"force,omitempty"`
}

type itemEnv struct {
	Obj     secRef       `json:"obj"`
	Profile secRef       `json:"profile"`
	Bench   string       `json:"bench,omitempty"`
	Scale   float64      `json:"scale,omitempty"`
	Config  *core.Config `json:"config,omitempty"`
}

// respEnv is the response envelope, mirroring Response the same way.
type respEnv struct {
	OK         bool             `json:"ok"`
	Err        string           `json:"err,omitempty"`
	Image      secRef           `json:"image"`
	Stats      *core.Stats      `json:"stats,omitempty"`
	Foot       *core.Footprint  `json:"foot,omitempty"`
	Cached     bool             `json:"cached,omitempty"`
	PrepCached bool             `json:"prep_cached,omitempty"`
	Results    []resultEnv      `json:"results,omitempty"`
	Server     *Snapshot        `json:"server,omitempty"`
	Cluster    *ClusterSnapshot `json:"cluster,omitempty"`
	Feed       *FeedSnapshot    `json:"feed,omitempty"`
	Resquash   *ResquashReport  `json:"resquash,omitempty"`
	ImageKey   string           `json:"image_key,omitempty"`
}

type resultEnv struct {
	OK         bool            `json:"ok"`
	Err        string          `json:"err,omitempty"`
	Image      secRef          `json:"image"`
	Stats      *core.Stats     `json:"stats,omitempty"`
	Foot       *core.Footprint `json:"foot,omitempty"`
	Cached     bool            `json:"cached,omitempty"`
	PrepCached bool            `json:"prep_cached,omitempty"`
	Shared     bool            `json:"shared,omitempty"`
}

// secTable assigns section references on the write side. Sections are laid
// out back to back in the order add is called — the same canonical order
// the reader's cursor enforces.
type secTable struct {
	secs [][]byte
	off  uint64
	err  error
}

func (t *secTable) add(b []byte) secRef {
	if len(b) == 0 {
		return secRef{}
	}
	if t.err != nil {
		return secRef{}
	}
	if t.off+uint64(len(b)) > MaxFrame {
		t.err = fmt.Errorf("serve: frame payload of %d bytes exceeds limit %d", t.off+uint64(len(b)), MaxFrame)
		return secRef{}
	}
	r := secRef{Off: uint32(t.off), Len: uint32(len(b))}
	t.off += uint64(len(b))
	t.secs = append(t.secs, b)
	return r
}

// secCursor resolves section references on the read side. It enforces the
// canonical layout — sections contiguous, in order, in bounds, covering
// the whole trailer — so overlapping or out-of-bounds references from a
// hostile peer are connection-level errors, never aliased reads.
type secCursor struct {
	pay []byte
	off uint32
}

func (c *secCursor) take(r secRef) ([]byte, error) {
	if r.Len == 0 {
		if r.Off != 0 {
			return nil, &protoError{msg: "payload section with zero length at nonzero offset"}
		}
		return nil, nil
	}
	if r.Off != c.off {
		return nil, &protoError{msg: fmt.Sprintf("payload section at offset %d out of order (cursor %d)", r.Off, c.off)}
	}
	end := uint64(r.Off) + uint64(r.Len)
	if end > uint64(len(c.pay)) {
		return nil, &protoError{msg: fmt.Sprintf("payload section [%d,%d) out of bounds (trailer %d bytes)", r.Off, end, len(c.pay))}
	}
	c.off = uint32(end)
	return c.pay[r.Off:end:end], nil
}

func (c *secCursor) done() error {
	if int(c.off) != len(c.pay) {
		return &protoError{msg: fmt.Sprintf("payload trailer has %d trailing bytes past the last section", len(c.pay)-int(c.off))}
	}
	return nil
}

// v2HeaderPad reserves header room at the front of the envelope buffer.
var v2HeaderPad [frameHeaderLen]byte

// emitFrame writes one frame: header, envelope, then each payload
// section straight from its source slice. Nothing assembles a full frame in
// memory — a multi-megabyte image streams through the bufio.Writer — and
// the caller's flush hands the socket whole buffered frames.
func emitFrame(bw *bufio.Writer, sc *frameScratch, env any, t *secTable) error {
	if t.err != nil {
		return t.err
	}
	// The header is assembled in front of the envelope inside the scratch
	// buffer, so header+envelope go out as one Write of pooled memory (a
	// stack header array would escape into the writer and allocate per
	// frame).
	sc.env.Reset()
	sc.env.Write(v2HeaderPad[:])
	if err := sc.enc.Encode(env); err != nil {
		return fmt.Errorf("serve: marshal envelope: %w", err)
	}
	frame := sc.env.Bytes()
	if n := len(frame); n > frameHeaderLen && frame[n-1] == '\n' {
		frame = frame[:n-1] // Encoder's trailing newline is not part of the frame
	}
	envLen := len(frame) - frameHeaderLen
	if uint64(envLen)+t.off > MaxFrame {
		return fmt.Errorf("serve: frame of %d bytes exceeds limit %d", uint64(envLen)+t.off, MaxFrame)
	}
	frame[0] = frameVersion
	frame[1] = 0
	frame[2] = frameMagic2
	frame[3] = frameMagic3
	binary.LittleEndian.PutUint32(frame[4:8], uint32(envLen))
	binary.LittleEndian.PutUint32(frame[8:12], uint32(t.off))
	if _, err := bw.Write(frame); err != nil {
		return err
	}
	for _, s := range t.secs {
		if _, err := bw.Write(s); err != nil {
			return err
		}
	}
	return nil
}

// writeRequestFrame encodes req as one frame into bw (not flushed).
func writeRequestFrame(bw *bufio.Writer, sc *frameScratch, req *Request) error {
	t := secTable{secs: sc.secs[:0]}
	e := &sc.reqEnv
	*e = reqEnv{
		Op:       wireOp(req.Op),
		Obj:      t.add(req.Obj),
		Profile:  t.add(req.Profile),
		Image:    t.add(req.Image),
		Input:    t.add(req.Input),
		Config:   req.Config,
		Bench:    req.Bench,
		Scale:    req.Scale,
		NoImage:  req.NoImage,
		Backend:  req.Backend,
		ImageKey: req.ImageKey,
		Run:      req.Run,
		Force:    req.Force,
	}
	if len(req.Items) > 0 {
		items := sc.items[:0]
		for i := range req.Items {
			it := &req.Items[i]
			items = append(items, itemEnv{
				Obj:     t.add(it.Obj),
				Profile: t.add(it.Profile),
				Bench:   it.Bench,
				Scale:   it.Scale,
				Config:  it.Config,
			})
		}
		e.Items = items
	}
	err := emitFrame(bw, sc, e, &t)
	sc.recycleReq(e, &t)
	return err
}

// writeResponseFrame encodes resp as one frame into bw (not flushed). The
// image bytes — a cache entry's retained copy on the warm path — go to the
// socket directly; the envelope is the only per-frame encoding work.
func writeResponseFrame(bw *bufio.Writer, sc *frameScratch, resp *Response) error {
	t := secTable{secs: sc.secs[:0]}
	e := &sc.respEnv
	*e = respEnv{
		OK:         resp.OK,
		Err:        resp.Err,
		Image:      t.add(resp.Image),
		Stats:      resp.Stats,
		Foot:       resp.Foot,
		Cached:     resp.Cached,
		PrepCached: resp.PrepCached,
		Server:     resp.Server,
		Cluster:    resp.Cluster,
		Feed:       resp.Feed,
		Resquash:   resp.Resquash,
		ImageKey:   resp.ImageKey,
	}
	if len(resp.Results) > 0 {
		results := sc.results[:0]
		for i := range resp.Results {
			r := &resp.Results[i]
			results = append(results, resultEnv{
				OK: r.OK, Err: r.Err, Image: t.add(r.Image),
				Stats: r.Stats, Foot: r.Foot,
				Cached: r.Cached, PrepCached: r.PrepCached, Shared: r.Shared,
			})
		}
		e.Results = results
	}
	err := emitFrame(bw, sc, e, &t)
	sc.recycleResp(e, &t)
	return err
}

// readFrameBody reads one frame (header included) into a pooled frame
// buffer and returns the envelope and payload views into it. The caller
// owns fb and must release it — directly on error paths, or through
// Request.releasePayload once decoded sections can no longer be read.
// Frames larger than the pool class go to an exact-size one-off buffer, so
// an oversized payload streams socket→buffer without pinning pool memory.
func readFrameBody(br *bufio.Reader) (fb *frameBuf, env, pay []byte, err error) {
	// Peek instead of reading into a stack array: the array would escape
	// into io.ReadFull and allocate on every frame. The fixed prefix is
	// checked on its own first, so foreign bytes are refused without
	// waiting for a full header.
	hdr, err := peekHeader(br, 4)
	if err != nil {
		return nil, nil, nil, err
	}
	if hdr[2] != frameMagic2 || hdr[3] != frameMagic3 {
		return nil, nil, nil, &protoError{msg: "bad frame magic"}
	}
	if hdr[0] != frameVersion {
		return nil, nil, nil, &protoError{msg: fmt.Sprintf("unsupported frame version %d (want %d)", hdr[0], frameVersion)}
	}
	if hdr[1] != 0 {
		return nil, nil, nil, &protoError{msg: fmt.Sprintf("unsupported frame flags %#x", hdr[1])}
	}
	if hdr, err = peekHeader(br, frameHeaderLen); err != nil {
		return nil, nil, nil, err
	}
	envLen := binary.LittleEndian.Uint32(hdr[4:8])
	payLen := binary.LittleEndian.Uint32(hdr[8:12])
	if envLen == 0 {
		return nil, nil, nil, &protoError{msg: "frame with empty envelope"}
	}
	total := uint64(envLen) + uint64(payLen)
	if total > MaxFrame {
		return nil, nil, nil, &protoError{msg: fmt.Sprintf("frame of %d bytes exceeds limit %d", total, MaxFrame)}
	}
	br.Discard(frameHeaderLen) // buffered by the Peek, cannot fail
	fb = getFrameBuf(int(total))
	buf := fb.data[:total]
	if _, err := io.ReadFull(br, buf); err != nil {
		fb.release()
		return nil, nil, nil, err
	}
	return fb, buf[:envLen], buf[envLen:total], nil
}

// peekHeader peeks the first n header bytes. A stream that ends inside the
// header is truncated, not cleanly closed.
func peekHeader(br *bufio.Reader, n int) ([]byte, error) {
	hdr, err := br.Peek(n)
	if err == io.EOF && len(hdr) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return hdr, err
}

// decodeEnv unmarshals one envelope through the scratch's pooled JSON
// decoder: a fresh json.Unmarshal rebuilds its decode state (scanner stack
// included) on every call, which dominates the per-frame allocation count.
// Any failure — including trailing bytes after the value, which would
// linger in the decoder's buffer — replaces the decoder, so pooled reuse
// never feeds one envelope's leftovers into the next frame's decode.
func (sc *frameScratch) decodeEnv(env []byte, v any) error {
	sc.decRd.Reset(env)
	err := sc.dec.Decode(v)
	if err == nil && sc.dec.More() {
		err = errors.New("trailing data after envelope")
	}
	if err != nil {
		sc.dec = json.NewDecoder(&sc.decRd)
	}
	return err
}

// decodeRequest fills req from an envelope + payload pair. Payload
// fields are zero-copy views into fb's buffer; on success req takes
// ownership of fb (releasePayload recycles it). On error the caller still
// owns fb. The envelope decodes into sc's pooled struct (zeroed first, so
// no field of an earlier frame survives); everything req keeps is either
// copied scalars or json-allocated values, never scratch-owned memory.
func decodeRequest(sc *frameScratch, env, pay []byte, fb *frameBuf, req *Request) error {
	e := &sc.reqEnv
	*e = reqEnv{}
	if err := sc.decodeEnv(env, e); err != nil {
		return &protoError{msg: fmt.Sprintf("bad envelope: %v", err)}
	}
	cur := secCursor{pay: pay}
	*req = Request{
		Op:       string(e.Op),
		Config:   e.Config,
		Bench:    e.Bench,
		Scale:    e.Scale,
		NoImage:  e.NoImage,
		Backend:  e.Backend,
		ImageKey: e.ImageKey,
		Run:      e.Run,
		Force:    e.Force,
	}
	var err error
	if req.Obj, err = cur.take(e.Obj); err != nil {
		return err
	}
	if req.Profile, err = cur.take(e.Profile); err != nil {
		return err
	}
	if req.Image, err = cur.take(e.Image); err != nil {
		return err
	}
	if req.Input, err = cur.take(e.Input); err != nil {
		return err
	}
	if len(e.Items) > 0 {
		req.Items = make([]BatchItem, len(e.Items))
		for i := range e.Items {
			ie := &e.Items[i]
			it := &req.Items[i]
			it.Bench, it.Scale, it.Config = ie.Bench, ie.Scale, ie.Config
			if it.Obj, err = cur.take(ie.Obj); err != nil {
				return err
			}
			if it.Profile, err = cur.take(ie.Profile); err != nil {
				return err
			}
		}
	}
	if err := cur.done(); err != nil {
		return err
	}
	req.fb = fb
	return nil
}

// decodeResponse fills resp from an envelope + payload pair. Unlike the
// server's request decode, payload sections are copied out at exact size:
// a response is retained by callers (files, caches, comparisons) long
// after the client's frame buffer recycles.
func decodeResponse(sc *frameScratch, env, pay []byte, resp *Response) error {
	e := &sc.respEnv
	*e = respEnv{}
	if err := sc.decodeEnv(env, e); err != nil {
		return &protoError{msg: fmt.Sprintf("bad envelope: %v", err)}
	}
	cur := secCursor{pay: pay}
	*resp = Response{
		OK: e.OK, Err: e.Err,
		Stats: e.Stats, Foot: e.Foot,
		Cached: e.Cached, PrepCached: e.PrepCached,
		Server: e.Server, Cluster: e.Cluster,
		Feed: e.Feed, Resquash: e.Resquash, ImageKey: e.ImageKey,
	}
	img, err := cur.take(e.Image)
	if err != nil {
		return err
	}
	resp.Image = copySection(img)
	if len(e.Results) > 0 {
		resp.Results = make([]BatchResult, len(e.Results))
		for i := range e.Results {
			re := &e.Results[i]
			r := &resp.Results[i]
			r.OK, r.Err, r.Stats, r.Foot = re.OK, re.Err, re.Stats, re.Foot
			r.Cached, r.PrepCached, r.Shared = re.Cached, re.PrepCached, re.Shared
			img, err := cur.take(re.Image)
			if err != nil {
				return err
			}
			r.Image = copySection(img)
		}
	}
	return cur.done()
}

func copySection(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// serverCodec is one connection's frame state: buffered I/O and the pooled
// encode scratch.
type serverCodec struct {
	br *bufio.Reader
	bw *bufio.Writer
	sc *frameScratch

	// conn, when set with a positive frameTimeout, bounds the read of each
	// frame from its first byte on: a client that stalls mid-frame loses
	// the connection instead of holding it and its frame buffer forever.
	// The wait for a frame's first byte has no deadline.
	conn         net.Conn
	frameTimeout time.Duration
}

func newServerCodec(r io.Reader, w io.Writer) *serverCodec {
	return &serverCodec{
		br: bufio.NewReaderSize(r, frameIOSize),
		bw: bufio.NewWriterSize(w, frameIOSize),
		sc: getFrameScratch(),
	}
}

func (c *serverCodec) close() {
	putFrameScratch(c.sc)
	c.sc = nil
}

// readRequest reads and decodes one frame.
func (c *serverCodec) readRequest(req *Request) error {
	if c.conn != nil && c.frameTimeout > 0 {
		if _, err := c.br.Peek(1); err != nil {
			return err
		}
		if err := c.conn.SetReadDeadline(time.Now().Add(c.frameTimeout)); err != nil {
			return err
		}
		defer c.conn.SetReadDeadline(time.Time{})
	}
	fb, env, pay, err := readFrameBody(c.br)
	if err != nil {
		return err
	}
	if err := decodeRequest(c.sc, env, pay, fb, req); err != nil {
		fb.release()
		return err
	}
	return nil
}

// writeResponse encodes resp and flushes, so the frame reaches the socket
// in whole buffered writes.
func (c *serverCodec) writeResponse(resp *Response) error {
	if err := writeResponseFrame(c.bw, c.sc, resp); err != nil {
		return err
	}
	return c.bw.Flush()
}
