package huffman

// Pooled bit I/O. The warm squash path creates one BitWriter per region
// encode and one BitReader per region decode; recycling them through
// sync.Pool makes both O(1) allocations steady-state — a recycled writer
// arrives with its grown buffer, a recycled reader with no buffer at all.
//
// Correctness leans on two contracts:
//
//   - BitWriter.Reset abandons any buffer Bytes has handed out (ownership,
//     see bitio.go), so recycling can never mutate a caller's bytes;
//   - BitReader.Reset replays NewBitReader bit for bit, so pooled and fresh
//     readers consume identical streams and charge identical bit counts.

import "sync"

// maxPooledBytes bounds the writer capacity the pool retains; anything
// larger (a pathological region) is dropped for the GC rather than pinned.
const maxPooledBytes = 1 << 20

var writerPool = sync.Pool{New: func() any { return new(BitWriter) }}
var readerPool = sync.Pool{New: func() any { return new(BitReader) }}

// GetWriter returns a reset writer with capacity for at least sizeHint
// bytes, recycled from the pool.
func GetWriter(sizeHint int) *BitWriter {
	w := writerPool.Get().(*BitWriter)
	w.Reset()
	w.Grow(sizeHint)
	return w
}

// PutWriter recycles w. The writer must no longer be referenced by the
// caller; any slice obtained from Bytes stays valid (Reset detaches it).
func PutWriter(w *BitWriter) {
	if w == nil {
		return
	}
	w.Reset()
	if cap(w.buf) > maxPooledBytes {
		return
	}
	writerPool.Put(w)
}

// GetReader returns a reader positioned at bit 0 of buf, recycled from the
// pool. It is interchangeable with NewBitReader.
func GetReader(buf []byte) *BitReader {
	r := readerPool.Get().(*BitReader)
	r.Reset(buf)
	return r
}

// PutReader recycles r, dropping its reference to the caller's buffer.
func PutReader(r *BitReader) {
	if r == nil {
		return
	}
	r.Reset(nil)
	readerPool.Put(r)
}
