// Package huffman implements the canonical Huffman coding scheme of
// Debray & Evans (PLDI 2002, §3). A canonical code assigns the same codeword
// *lengths* as an ordinary Huffman code but chooses the codewords
// deterministically from the length histogram N[i], so that the decoder
// needs only the histogram and the value array D — "a codeword can be
// rapidly decoded using the arrays N[i] and D[j]".
package huffman

import "encoding/binary"

// BitWriter accumulates a most-significant-bit-first bit stream.
//
// Pending bits collect in a 64-bit accumulator and leave it 32 at a time,
// so a field costs a shift and an OR, and the byte buffer grows by one
// four-byte append per 32 bits written. The stream is identical to one
// WriteBit call per bit (see the reference writer in encode_equiv_test.go).
//
// Ownership: Bytes hands the caller a slice aliasing the internal buffer.
// From that point the writer no longer owns the storage; Reset detaches from
// it (the next write grows a fresh buffer), so a recycled writer can never
// mutate bytes a previous user still holds. The pooled Get/Put cycle in
// pool.go relies on exactly this contract.
type BitWriter struct {
	buf  []byte
	acc  uint64 // pending bits, left-aligned: bit 63 is the oldest
	nacc uint   // pending bits in acc, always below 32 between calls
	// leaked records that Bytes exposed buf to a caller; Reset must then
	// abandon the storage instead of truncating it for reuse.
	leaked bool
}

// Reset clears the writer for reuse. Capacity is retained unless Bytes has
// handed the buffer out, in which case the storage is abandoned so the
// previously returned slice stays immutable forever.
func (w *BitWriter) Reset() {
	if w.leaked {
		w.buf = nil
		w.leaked = false
	} else {
		w.buf = w.buf[:0]
	}
	w.acc, w.nacc = 0, 0
}

// Grow ensures capacity for at least n more whole bytes of output, so a
// writer sized from region statistics completes its stream without
// intermediate reallocation.
func (w *BitWriter) Grow(n int) {
	if n <= 0 || cap(w.buf)-len(w.buf) >= n {
		return
	}
	buf := make([]byte, len(w.buf), len(w.buf)+n)
	copy(buf, w.buf)
	w.buf = buf
	w.leaked = false
}

// WriteBits appends the low width bits of v, most significant first; bits
// of v above width are ignored. The stream is identical to width WriteBit
// calls.
func (w *BitWriter) WriteBits(v uint64, width uint) {
	if width > 32 {
		w.writeWide(v, width)
		return
	}
	w.write32(v, width)
}

// Put appends cw, a codeword of at most 32 bits, and reports true. For
// the absent codeword, or one longer than 32 bits, it writes nothing and
// reports false, so the caller's cold path can name the value or write the
// long codeword with Code.Encode. It inlines.
func (w *BitWriter) Put(cw Codeword) bool {
	if cw.len-1 >= 32 {
		return false
	}
	w.write32(cw.bits, uint(cw.len))
	return true
}

// writeWide is WriteBits for fields wider than 32 bits, out of line so the
// common path inlines.
func (w *BitWriter) writeWide(v uint64, width uint) {
	for ; width > 64; width-- {
		w.WriteBit(0) // v has no bits above 64
	}
	w.write32(v>>32, width-32)
	w.write32(v, 32)
}

// write32 appends the low width ≤ 32 bits of v. With fewer than 32 bits
// pending the field always fits the accumulator; a full upper half is
// flushed as one big-endian word. Width 0 writes nothing: Go's shift by 64
// yields 0.
func (w *BitWriter) write32(v uint64, width uint) {
	w.acc |= v << (64 - width) >> w.nacc
	w.nacc += width
	if w.nacc >= 32 {
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(w.acc>>32))
		w.acc <<= 32
		w.nacc -= 32
	}
}

// WriteBit appends a single bit.
func (w *BitWriter) WriteBit(b uint8) { w.write32(uint64(b), 1) }

// Len reports the number of bits written so far: buf holds whole bytes,
// and acc the rest.
func (w *BitWriter) Len() int { return 8*len(w.buf) + int(w.nacc) }

// flushBytes moves the whole bytes pending in the accumulator to buf,
// leaving fewer than eight bits pending.
func (w *BitWriter) flushBytes() {
	for ; w.nacc >= 8; w.nacc -= 8 {
		w.buf = append(w.buf, byte(w.acc>>56))
		w.acc <<= 8
	}
}

// Append replays every bit written to src onto w, producing exactly the
// stream the same WriteBit calls would have. It lets independent sections
// be encoded concurrently into private writers and then concatenated into
// one bit stream; when w is byte-aligned the bulk of src is copied whole.
func (w *BitWriter) Append(src *BitWriter) {
	w.flushBytes()
	body := src.buf
	if w.nacc == 0 {
		w.buf = append(w.buf, body...)
	} else {
		for ; len(body) >= 4; body = body[4:] {
			w.write32(uint64(binary.BigEndian.Uint32(body)), 32)
		}
		for _, b := range body {
			w.write32(uint64(b), 8)
		}
	}
	if src.nacc > 0 {
		w.write32(src.acc>>(64-src.nacc), src.nacc)
	}
}

// Bytes flushes the final partial byte (padding with zero bits) and returns
// the accumulated buffer. The writer remains usable; further writes continue
// from the unpadded position only if the bit count was already a multiple of
// eight, so callers should treat Bytes as terminal.
func (w *BitWriter) Bytes() []byte {
	w.leaked = true
	w.flushBytes()
	out := w.buf
	if w.nacc > 0 {
		out = append(out, byte(w.acc>>56))
	}
	return out
}

// BitReader consumes a most-significant-bit-first bit stream and counts the
// bits it reads, which the simulator's cost model uses to charge
// decompression work.
//
// The reader keeps the upcoming bits in a 64-bit refill buffer and extracts
// whole fields with shifts instead of per-bit loops; the observable stream —
// bit values, consumed-bit count, zero fill past the end — is identical to a
// bit-at-a-time reader over the same buffer (see the equivalence tests in
// bitio_equiv_test.go).
type BitReader struct {
	buf    []byte
	pos    int    // absolute bit position consumed so far
	bitbuf uint64 // upcoming bits, left-aligned: bit 63 is the next bit
	nbits  uint   // valid bits in bitbuf
	bp     int    // byte index of the next unloaded byte
}

// NewBitReader returns a reader over buf.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// Reset repositions the reader at bit 0 of a new buffer, exactly as
// NewBitReader would, so pooled readers replay the fresh-reader bit stream.
func (r *BitReader) Reset(buf []byte) {
	r.buf = buf
	r.pos, r.bitbuf, r.nbits, r.bp = 0, 0, 0, 0
}

// refill tops the bit buffer up to at least 57 valid bits. Past the end of
// buf the stream continues with zero bits, matching the zero padding emitted
// by BitWriter.Bytes; decoders terminate on an explicit sentinel value
// rather than on end of stream.
func (r *BitReader) refill() {
	if r.bp+8 <= len(r.buf) {
		// One 64-bit load continues the stream at bit 63-nbits. Only the
		// whole bytes that fit are accounted in nbits and bp; up to seven
		// unaccounted low bits also land in bitbuf, but they hold exactly
		// the stream bits at those positions, so the next refill ORs the
		// same values over them.
		n := (64 - r.nbits) >> 3
		r.bitbuf |= binary.BigEndian.Uint64(r.buf[r.bp:]) >> r.nbits
		r.nbits += n << 3
		r.bp += int(n)
		return
	}
	for r.nbits <= 56 {
		if r.bp >= len(r.buf) {
			r.nbits = 64 // implicit zero bits; bitbuf's low bits are zero
			return
		}
		r.bitbuf |= uint64(r.buf[r.bp]) << (56 - r.nbits)
		r.nbits += 8
		r.bp++
	}
}

// peek returns the next width bits (width ≤ 57) without consuming them.
func (r *BitReader) peek(width uint) uint64 {
	if r.nbits < width {
		r.refill()
	}
	return r.bitbuf >> (64 - width)
}

// skip consumes width bits; the caller must have peeked at least that many.
func (r *BitReader) skip(width uint) {
	r.bitbuf <<= width
	r.nbits -= width
	r.pos += int(width)
}

// ReadBit returns the next bit. Reading past the end returns zero bits.
func (r *BitReader) ReadBit() uint8 {
	if r.nbits == 0 {
		r.refill()
	}
	b := uint8(r.bitbuf >> 63)
	r.bitbuf <<= 1
	r.nbits--
	r.pos++
	return b
}

// ReadBits reads width bits, most significant first. Widths above 64 keep
// only the last 64 bits read (the earlier ones shift out), like the
// bit-at-a-time formulation.
func (r *BitReader) ReadBits(width uint) uint64 {
	for width > 64 {
		r.ReadBit()
		width--
	}
	if width > 32 {
		hi := r.readSmall(width - 32)
		return hi<<32 | r.readSmall(32)
	}
	return r.readSmall(width)
}

// readSmall extracts up to 32 bits from the refill buffer in one shift.
func (r *BitReader) readSmall(width uint) uint64 {
	if width == 0 {
		return 0
	}
	if r.nbits < width {
		r.refill()
	}
	v := r.bitbuf >> (64 - width)
	r.bitbuf <<= width
	r.nbits -= width
	r.pos += int(width)
	return v
}

// BitsRead reports the number of bits consumed so far.
func (r *BitReader) BitsRead() int { return r.pos }

// Seek positions the reader at an absolute bit offset.
func (r *BitReader) Seek(bitPos int) {
	r.pos = bitPos
	r.bp = bitPos >> 3
	r.bitbuf = 0
	r.nbits = 0
	if k := uint(bitPos & 7); k != 0 {
		var b byte
		if r.bp >= 0 && r.bp < len(r.buf) {
			b = r.buf[r.bp]
		}
		r.bp++
		// Drop the k already-consumed top bits of the straddled byte.
		r.bitbuf = uint64(b) << (56 + k)
		r.nbits = 8 - k
	}
}
