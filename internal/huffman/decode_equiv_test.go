package huffman

import (
	"math/rand"
	"testing"
	"unsafe"
)

// decodeBoth runs the table-driven decoder and the paper's tree decoder over
// the same bitstream and asserts that every decoded value, every error, and
// every bits-consumed count agree.
func decodeBoth(t *testing.T, c *Code, stream []byte, n int) {
	t.Helper()
	fast := NewBitReader(stream)
	tree := NewBitReader(stream)
	for i := 0; i < n; i++ {
		fv, ferr := c.Decode(fast)
		tv, terr := c.DecodeTree(tree)
		if (ferr == nil) != (terr == nil) {
			t.Fatalf("symbol %d: Decode err=%v, DecodeTree err=%v", i, ferr, terr)
		}
		if ferr != nil {
			if fast.BitsRead() != tree.BitsRead() {
				t.Fatalf("symbol %d: error at bit %d (table) vs %d (tree)", i, fast.BitsRead(), tree.BitsRead())
			}
			return
		}
		if fv != tv {
			t.Fatalf("symbol %d: Decode=%d, DecodeTree=%d", i, fv, tv)
		}
		if fast.BitsRead() != tree.BitsRead() {
			t.Fatalf("symbol %d: value %d consumed %d bits (table) vs %d (tree)", i, fv, fast.BitsRead(), tree.BitsRead())
		}
	}
}

// encodeStream encodes vals with c and returns the packed bytes.
func encodeStream(t *testing.T, c *Code, vals []uint32) []byte {
	t.Helper()
	var w BitWriter
	for _, v := range vals {
		if err := c.Encode(&w, v); err != nil {
			t.Fatalf("encode %d: %v", v, err)
		}
	}
	return w.Bytes()
}

// TestDecodeEquivSkewed covers the common case: a large skewed alphabet where
// short codes hit the direct table and long ones take the table's escape path.
func TestDecodeEquivSkewed(t *testing.T) {
	freq := make(map[uint32]uint64)
	for v := uint32(0); v < 300; v++ {
		freq[v] = 1 + uint64(1)<<(24-v/13)
	}
	c := Build(freq)
	rng := rand.New(rand.NewSource(7))
	vals := make([]uint32, 5000)
	for i := range vals {
		// Bias toward frequent symbols but include every rank.
		if rng.Intn(4) > 0 {
			vals[i] = uint32(rng.Intn(30))
		} else {
			vals[i] = uint32(rng.Intn(300))
		}
	}
	decodeBoth(t, c, encodeStream(t, c, vals), len(vals))
}

// TestDecodeEquivDeepCodes uses Fibonacci-like frequencies to force maximally
// unbalanced codes far deeper than DecodeTableBits, so every long-code escape
// in the table decoder is exercised.
func TestDecodeEquivDeepCodes(t *testing.T) {
	freq := make(map[uint32]uint64)
	a, b := uint64(1), uint64(1)
	for v := uint32(0); v < 40; v++ {
		freq[v] = a
		a, b = b, a+b
	}
	c := Build(freq)
	if c.MaxLen() <= DecodeTableBits {
		t.Fatalf("test expects codes deeper than the table (max len %d)", c.MaxLen())
	}
	rng := rand.New(rand.NewSource(8))
	vals := make([]uint32, 3000)
	for i := range vals {
		vals[i] = uint32(rng.Intn(40)) // uniform: deep codes appear often
	}
	decodeBoth(t, c, encodeStream(t, c, vals), len(vals))
}

// TestDecodeEquivSingleValue checks the degenerate one-symbol code.
func TestDecodeEquivSingleValue(t *testing.T) {
	c := Build(map[uint32]uint64{42: 100})
	vals := make([]uint32, 64)
	for i := range vals {
		vals[i] = 42
	}
	decodeBoth(t, c, encodeStream(t, c, vals), len(vals))
}

// TestDecodeEquivTwoValues checks the minimal two-symbol code (1-bit codes).
func TestDecodeEquivTwoValues(t *testing.T) {
	c := Build(map[uint32]uint64{3: 10, 9: 1})
	rng := rand.New(rand.NewSource(9))
	vals := make([]uint32, 500)
	for i := range vals {
		if rng.Intn(3) == 0 {
			vals[i] = 9
		} else {
			vals[i] = 3
		}
	}
	decodeBoth(t, c, encodeStream(t, c, vals), len(vals))
}

// TestDecodeEquivWideValues: values too wide for a packed table entry
// (maxEntrySym and above) on short codewords decode through the fallback
// paths to the same values and bit counts as the tree decoder, next to
// narrow values that the table resolves.
func TestDecodeEquivWideValues(t *testing.T) {
	freq := map[uint32]uint64{maxEntrySym: 40, maxEntrySym + 1: 30, 0xFFFFFFFF: 20, 7: 10, 1 << 26: 5}
	c := Build(freq)
	rng := rand.New(rand.NewSource(11))
	keys := []uint32{maxEntrySym, maxEntrySym + 1, 0xFFFFFFFF, 7, 1 << 26}
	vals := make([]uint32, 1000)
	for i := range vals {
		vals[i] = keys[rng.Intn(len(keys))]
	}
	decodeBoth(t, c, encodeStream(t, c, vals), len(vals))
	if c.Stats.TableHits == 0 {
		t.Error("no value decoded through the table")
	}
}

// TestDecodeEntrySize pins the decode-table entry at four bytes: every code
// holds 1<<DecodeTableBits of them, and the hot lookup reads one per
// codeword.
func TestDecodeEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(decEntry(0)); got != 4 {
		t.Fatalf("decEntry is %d bytes, want 4", got)
	}
}

// TestDecodeEquivGarbageStreams feeds random bytes (not a valid encoding of
// anything in particular) to both decoders: whatever each bit pattern decodes
// to — values or ErrBadCode — must agree symbol for symbol.
func TestDecodeEquivGarbageStreams(t *testing.T) {
	freq := make(map[uint32]uint64)
	a, b := uint64(1), uint64(1)
	for v := uint32(0); v < 30; v++ {
		freq[v] = a
		a, b = b, a+b
	}
	c := Build(freq)
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		stream := make([]byte, 64)
		rng.Read(stream)
		decodeBoth(t, c, stream, 1000) // stops at first error or after 1000 symbols
	}
}

// TestDecodeEquivIrregularTable deserializes a code whose N histogram
// violates the Kraft equality (possible with hand-built or corrupt tables).
// buildDecoder must refuse the fast table for it, and Decode must still agree
// with DecodeTree on every stream.
func TestDecodeEquivIrregularTable(t *testing.T) {
	good := Build(map[uint32]uint64{1: 8, 2: 4, 3: 2, 4: 1, 5: 1})
	data, err := good.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var c Code
	if err := c.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	// Inflate the histogram: claim one more codeword of the max length than
	// the tree has room for (a Kraft violation). buildDecoder must reject the
	// fast table and route every Decode through the reference decoder, so
	// both paths see the exact same (nonsensical) canonical arithmetic.
	c.N[c.MaxLen()]++
	c.D = append(c.D, 99)
	if c.regular() {
		t.Fatal("inflated histogram still reads as regular")
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		stream := make([]byte, 32)
		rng.Read(stream)
		decodeBoth(t, &c, stream, 500)
	}
}

// TestDecodeEquivAfterUnmarshal makes sure a round-tripped code decodes
// identically via both paths (the decoder tables are rebuilt lazily after
// UnmarshalBinary resets them).
func TestDecodeEquivAfterUnmarshal(t *testing.T) {
	freq := make(map[uint32]uint64)
	for v := uint32(0); v < 100; v++ {
		freq[v] = uint64(v*v + 1)
	}
	orig := Build(freq)
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var c Code
	if err := c.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	vals := make([]uint32, 2000)
	for i := range vals {
		vals[i] = uint32(rng.Intn(100))
	}
	decodeBoth(t, &c, encodeStream(t, orig, vals), len(vals))
}
