package huffman

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// refWriter is the original bit-at-a-time BitWriter, kept as the
// specification for WriteBits, which moves up to a byte per step.
type refWriter struct {
	buf  []byte
	cur  byte
	bits uint8
	n    int
}

func (w *refWriter) writeBit(b uint8) {
	w.cur = w.cur<<1 | b&1
	w.bits++
	w.n++
	if w.bits == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.bits = 0, 0
	}
}

func (w *refWriter) writeBits(v uint64, width uint) {
	for i := int(width) - 1; i >= 0; i-- {
		w.writeBit(uint8(v >> uint(i) & 1))
	}
}

func (w *refWriter) bytes() []byte {
	if w.bits > 0 {
		return append(w.buf, w.cur<<(8-w.bits))
	}
	return w.buf
}

// randomField draws a value with junk above its width, which WriteBits
// must ignore.
func randomField(rng *rand.Rand) (uint64, uint) {
	return rng.Uint64(), uint(rng.Intn(65))
}

// TestWriteBitsMatchesReference drives random (value, width 0..64)
// sequences from every starting bit alignment, and appends a random stream
// onto an unaligned writer, comparing length and bytes with the reference.
func TestWriteBitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for align := uint(0); align < 8; align++ {
		for trial := 0; trial < 50; trial++ {
			var w BitWriter
			var ref refWriter
			prefix := rng.Uint64()
			w.WriteBits(prefix, align)
			ref.writeBits(prefix, align)
			for op := 0; op < 100; op++ {
				v, width := randomField(rng)
				w.WriteBits(v, width)
				ref.writeBits(v, width)
			}
			if w.Len() != ref.n {
				t.Fatalf("align %d trial %d: Len %d, reference %d", align, trial, w.Len(), ref.n)
			}
			if !bytes.Equal(w.Bytes(), ref.bytes()) {
				t.Fatalf("align %d trial %d: bytes differ from the reference", align, trial)
			}

			// Append: dst starts at this alignment, src at a random one.
			var dst, src BitWriter
			var refCat refWriter
			dst.WriteBits(prefix, align)
			refCat.writeBits(prefix, align)
			for op := rng.Intn(40); op > 0; op-- {
				v, width := randomField(rng)
				src.WriteBits(v, width)
				refCat.writeBits(v, width)
			}
			dst.Append(&src)
			if dst.Len() != refCat.n || !bytes.Equal(dst.Bytes(), refCat.bytes()) {
				t.Fatalf("align %d trial %d: Append onto an unaligned writer differs from the reference", align, trial)
			}
		}
	}
}

// refCodewords is the canonical codeword assignment as a plain map, the
// encoder every code used before the dense table.
func refCodewords(c *Code) map[uint32]Codeword {
	enc := make(map[uint32]Codeword, len(c.D))
	var b uint64
	j := 0
	for i := 1; i <= c.MaxLen(); i++ {
		if i > 1 {
			b = 2 * (b + uint64(c.N[i-1]))
		}
		for k := 0; k < c.N[i]; k++ {
			enc[c.D[j]] = Codeword{bits: b + uint64(k), len: uint8(i)}
			j++
		}
	}
	return enc
}

// randomFreqs draws n distinct values below limit with random counts.
func randomFreqs(rng *rand.Rand, n int, limit uint32) map[uint32]uint64 {
	freq := map[uint32]uint64{}
	for len(freq) < n {
		freq[uint32(rng.Int63n(int64(limit)))] = 1 + uint64(rng.Intn(1000))
	}
	return freq
}

// checkEncoder compares every coded value's codeword, length and emitted
// bits with the reference map.
func checkEncoder(t *testing.T, name string, c *Code) {
	t.Helper()
	ref := refCodewords(c)
	for _, v := range c.D {
		if cw := c.Lookup(v); cw != ref[v] {
			t.Fatalf("%s: value %d: codeword %+v, reference %+v", name, v, cw, ref[v])
		}
		if got := c.CodeLen(v); got != int(ref[v].len) {
			t.Fatalf("%s: CodeLen(%d) = %d, reference %d", name, v, got, ref[v].len)
		}
		var w BitWriter
		var rw refWriter
		if err := c.Encode(&w, v); err != nil {
			t.Fatalf("%s: Encode(%d): %v", name, v, err)
		}
		rw.writeBits(ref[v].bits, uint(ref[v].len))
		if !bytes.Equal(w.Bytes(), rw.bytes()) {
			t.Fatalf("%s: Encode(%d) bits differ from the reference codeword", name, v)
		}

		// Put writes a codeword of at most 32 bits as Encode does and
		// leaves a longer one to its caller; Dense serves dense codes.
		var pw BitWriter
		if ok := pw.Put(c.Lookup(v)); ok != (ref[v].len <= 32) {
			t.Fatalf("%s: Put(Lookup(%d)) = %v for a %d-bit codeword", name, v, ok, ref[v].len)
		} else if ok && !bytes.Equal(pw.Bytes(), rw.bytes()) {
			t.Fatalf("%s: Put(Lookup(%d)) bits differ from the reference codeword", name, v)
		} else if !ok && pw.Len() != 0 {
			t.Fatalf("%s: Put of a %d-bit codeword wrote %d bits", name, ref[v].len, pw.Len())
		}
		want := ref[v]
		if c.wide != nil {
			want = Codeword{}
		}
		if cw := c.Dense(v); cw != want {
			t.Fatalf("%s: Dense(%d) = %+v, want %+v", name, v, cw, want)
		}
	}
}

// TestPutLongCodewords: in a code with codewords past 32 bits (Fibonacci
// frequencies make a 45-level tree), Put refuses exactly the long ones,
// from the dense and from the open-addressed table.
func TestPutLongCodewords(t *testing.T) {
	for _, base := range []uint32{0, 1 << 20} {
		freq := map[uint32]uint64{}
		a, b := uint64(1), uint64(1)
		for i := uint32(0); i < 46; i++ {
			freq[base+i] = a
			a, b = b, a+b
		}
		c := Build(freq)
		if c.MaxLen() <= 32 {
			t.Fatalf("base %d: longest codeword %d bits, want more than 32", base, c.MaxLen())
		}
		checkEncoder(t, fmt.Sprintf("fibonacci base %d", base), c)
	}
}

// TestDenseEncoderMatchesMap: codes whose values all lie below denseLimit
// take the dense table, wider ones the open-addressed table, and both give
// the reference codeword (a plain map) for every coded value.
func TestDenseEncoderMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(64)
		dense := Build(randomFreqs(rng, n, denseLimit))
		dense.Prime()
		if dense.dense == nil || dense.wide != nil {
			t.Fatalf("trial %d: %d values below %d did not select the dense table", trial, n, denseLimit)
		}
		checkEncoder(t, fmt.Sprintf("dense trial %d", trial), dense)

		freq := randomFreqs(rng, n, 1<<21)
		freq[1<<20] = 1 // at least one value past the cutoff
		wide := Build(freq)
		wide.Prime()
		if wide.wide == nil || wide.dense != nil {
			t.Fatalf("trial %d: a value of 1<<20 did not select the open-addressed table", trial)
		}
		checkEncoder(t, fmt.Sprintf("wide trial %d", trial), wide)
	}
}

// TestEncodeAbsentValues: values outside the code give the same "not
// present in code" error from either encoder: 0 when 0 is uncoded, the
// first value past the dense table, and values at and above the cutoff.
func TestEncodeAbsentValues(t *testing.T) {
	dense := Build(map[uint32]uint64{3: 4, 5: 1, 200: 2})
	wide := Build(map[uint32]uint64{3: 4, 5: 1, 1 << 16: 2})
	empty := Build(nil)
	dense.Prime()
	if len(dense.dense) != 201 {
		t.Fatalf("dense table has %d entries, want 201", len(dense.dense))
	}
	for _, c := range []*Code{dense, wide, empty} {
		for _, v := range []uint32{0, 4, 201, denseLimit, denseLimit + 1, 1<<16 + 1, 1<<32 - 1} {
			var w BitWriter
			err := c.Encode(&w, v)
			want := fmt.Sprintf("huffman: value %d not present in code", v)
			if err == nil || err.Error() != want {
				t.Errorf("Encode(%d) = %v, want %q", v, err, want)
			}
			if w.Len() != 0 || c.CodeLen(v) != 0 {
				t.Errorf("absent value %d wrote %d bits, CodeLen %d", v, w.Len(), c.CodeLen(v))
			}
			if w.Put(c.Lookup(v)) || w.Put(c.Dense(v)) || w.Len() != 0 {
				t.Errorf("Put of absent value %d reported true or wrote %d bits", v, w.Len())
			}
		}
	}
}

// TestEncoderRebuiltAfterUnmarshal: decoding new tables into a code whose
// encoder is already built drops that encoder, so no value of the old code
// encodes, and Prime builds the new code's, in both directions between the
// dense table and the open-addressed one.
func TestEncoderRebuiltAfterUnmarshal(t *testing.T) {
	dense := Build(map[uint32]uint64{1: 7, 2: 3, 9: 1, 40: 12})
	wide := Build(map[uint32]uint64{2: 5, 7: 5, 300: 1, 70000: 9})
	for _, tc := range []struct {
		name     string
		from, to *Code
	}{{"dense to wide", dense, wide}, {"wide to dense", wide, dense}} {
		blob, err := tc.to.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		c := &Code{N: tc.from.N, D: tc.from.D}
		c.Prime()
		if err := c.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		for _, v := range tc.from.D {
			if err := c.Encode(new(BitWriter), v); err == nil {
				t.Errorf("%s: value %d encodes through the dropped encoder", tc.name, v)
			}
		}
		c.Prime()
		checkEncoder(t, tc.name, c)
		for _, v := range tc.from.D {
			if _, ok := refCodewords(tc.to)[v]; ok {
				continue
			}
			if err := c.Encode(new(BitWriter), v); err == nil {
				t.Errorf("%s: value %d of the old code still encodes", tc.name, v)
			}
		}
	}
}
