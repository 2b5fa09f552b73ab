package huffman

import (
	"testing"

	"repro/internal/race"
)

// Sinks for the fresh variant: storing each fresh object in a package
// variable makes it escape to the heap, as the writers and readers handed
// out before pooling did, so escape analysis cannot move it onto the stack
// and under-count the fresh side.
var (
	freshWriter *BitWriter
	freshReader *BitReader
)

// TestBitIOAllocGate gates the bit I/O pools: one op encodes a ~2 Kbit
// stream and decodes it back. The pooled Get/Put cycle must stay at most 1
// alloc/op once the pool is warm, and a fresh writer and reader per op, the
// pre-pool behaviour, must allocate at least 4 times as much (0 vs 5
// measured).
func TestBitIOAllocGate(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	c, _, _ := benchStream()
	encode := func(w *BitWriter) {
		for s := 0; s < 256; s++ {
			if err := c.Encode(w, uint32(s%24)); err != nil {
				t.Fatal(err)
			}
		}
	}
	decode := func(r *BitReader) {
		for s := 0; s < 200; s++ {
			if _, err := c.Decode(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	pooled := testing.AllocsPerRun(200, func() {
		w := GetWriter(64)
		encode(w)
		r := GetReader(w.buf) // whole bytes only; no Bytes() leak
		decode(r)
		PutReader(r)
		PutWriter(w)
	})
	fresh := testing.AllocsPerRun(200, func() {
		w := new(BitWriter)
		w.Grow(64)
		encode(w)
		r := NewBitReader(w.buf)
		decode(r)
		freshWriter, freshReader = w, r
	})
	t.Logf("allocs/op: pooled %v, fresh %v", pooled, fresh)
	if pooled > 1 {
		t.Errorf("pooled bit I/O: %v allocs/op, ceiling 1", pooled)
	}
	if fresh < 4*pooled {
		t.Errorf("fresh bit I/O: %v allocs/op, under 4x pooled %v: pooling stopped paying off", fresh, pooled)
	}
}
