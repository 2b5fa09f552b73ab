package huffman

import "testing"

// Sinks for the fresh variants: storing each fresh object in a package
// variable makes it escape to the heap, as the writers and readers handed
// out before pooling did, so escape analysis cannot move it onto the stack
// and under-count the fresh side.
var (
	freshWriter *BitWriter
	freshReader *BitReader
)

// BenchmarkBitIOAlloc is the paired allocation benchmark for the bit I/O
// layer: one op encodes a ~2 Kbit stream and decodes it back. "pooled" runs
// the Get/Put cycle (steady-state zero allocations once the pool is warm);
// "fresh" allocates a new writer and reader per op, the pre-pool behaviour.
// CI gates the pooled allocs/op ceiling and the fresh/pooled reduction via
// benchhist's alloc gates.
func BenchmarkBitIOAlloc(b *testing.B) {
	c, _, _ := benchStream()
	encode := func(b *testing.B, w *BitWriter) {
		for s := 0; s < 256; s++ {
			if err := c.Encode(w, uint32(s%24)); err != nil {
				b.Fatal(err)
			}
		}
	}
	decode := func(b *testing.B, r *BitReader) {
		for s := 0; s < 200; s++ {
			if _, err := c.Decode(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := GetWriter(64)
			encode(b, w)
			r := GetReader(w.buf) // whole bytes only; no Bytes() leak
			decode(b, r)
			PutReader(r)
			PutWriter(w)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := new(BitWriter)
			w.Grow(64)
			encode(b, w)
			r := NewBitReader(w.buf)
			decode(b, r)
			freshWriter, freshReader = w, r
		}
	})
}
