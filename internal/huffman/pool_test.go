package huffman

import (
	"bytes"
	"testing"
)

// writeMix drives a writer through a deterministic mixed-width bit pattern.
func writeMix(w *BitWriter, seed uint64, nOps int) {
	state := seed
	for i := 0; i < nOps; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		w.WriteBits(state, uint(1+state%23))
	}
}

// TestBitWriterBytesOwnershipUnderReset is the ownership contract: a slice
// returned by Bytes is never mutated by later use of the recycled writer,
// whether recycled by hand (Reset) or through the pool.
func TestBitWriterBytesOwnershipUnderReset(t *testing.T) {
	var w BitWriter
	writeMix(&w, 0x1234, 100)
	got := w.Bytes()
	want := append([]byte(nil), got...)

	// Recycle and write a completely different, longer stream.
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", w.Len())
	}
	writeMix(&w, 0xFEFE, 400)
	_ = w.Bytes()

	if !bytes.Equal(got, want) {
		t.Fatal("slice returned by Bytes was mutated by writes after Reset")
	}

	// Same through the pool: Put must detach the leaked buffer too.
	w2 := GetWriter(0)
	writeMix(w2, 0x7777, 50)
	got2 := w2.Bytes()
	want2 := append([]byte(nil), got2...)
	PutWriter(w2)
	for i := 0; i < 8; i++ {
		w3 := GetWriter(64)
		writeMix(w3, uint64(0x9000+i), 200)
		_ = w3.Bytes()
		PutWriter(w3)
	}
	if !bytes.Equal(got2, want2) {
		t.Fatal("slice returned by Bytes was mutated by pooled writer reuse")
	}
}

// TestBitWriterResetReusesCapacity: without a Bytes leak, Reset keeps the
// grown buffer, which is what makes the pooled encode path allocation-free.
func TestBitWriterResetReusesCapacity(t *testing.T) {
	var w BitWriter
	writeMix(&w, 1, 1000)
	c := cap(w.buf)
	if c == 0 {
		t.Fatal("writer never grew")
	}
	w.Reset()
	if cap(w.buf) != c {
		t.Fatalf("Reset dropped capacity %d -> %d without a Bytes leak", c, cap(w.buf))
	}
	w.Reset()
	writeMix(&w, 1, 1000)
	if cap(w.buf) != c {
		t.Fatalf("rewrite grew capacity %d -> %d", c, cap(w.buf))
	}
}

// TestPooledWriterStreamIdentical: a writer cycled through Get/Put produces
// byte-for-byte the stream a fresh writer produces, including Append merges.
func TestPooledWriterStreamIdentical(t *testing.T) {
	fresh := func(seed uint64) []byte {
		var a, b BitWriter
		writeMix(&a, seed, 137)
		writeMix(&b, seed^0xABCD, 61)
		a.Append(&b)
		return append([]byte(nil), a.Bytes()...)
	}
	pooled := func(seed uint64) []byte {
		a, b := GetWriter(8), GetWriter(8)
		writeMix(a, seed, 137)
		writeMix(b, seed^0xABCD, 61)
		a.Append(b)
		PutWriter(b)
		out := append([]byte(nil), a.Bytes()...)
		PutWriter(a)
		return out
	}
	for seed := uint64(1); seed < 20; seed++ {
		if got, want := pooled(seed), fresh(seed); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: pooled stream differs from fresh (%d vs %d bytes)", seed, len(got), len(want))
		}
	}
}

// TestPooledReaderStreamIdentical: a pooled (Reset) reader consumes the same
// bit values and charges the same bit counts as a fresh reader, including
// reads past the end and Seek.
func TestPooledReaderStreamIdentical(t *testing.T) {
	var w BitWriter
	writeMix(&w, 42, 300)
	blob := w.Bytes()

	read := func(r *BitReader) []uint64 {
		var out []uint64
		r.Seek(13)
		for i := uint(1); i <= 40; i++ {
			out = append(out, r.ReadBits(i%24+1))
		}
		out = append(out, uint64(r.BitsRead()))
		return out
	}
	want := read(NewBitReader(blob))
	for i := 0; i < 5; i++ {
		r := GetReader(blob)
		got := read(r)
		PutReader(r)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("cycle %d read %d: pooled %d, fresh %d", i, k, got[k], want[k])
			}
		}
	}
}
