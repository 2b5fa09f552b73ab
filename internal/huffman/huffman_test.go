package huffman

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBitIORoundTrip(t *testing.T) {
	var w BitWriter
	w.WriteBits(0b101, 3)
	w.WriteBits(0, 1)
	w.WriteBits(0xDEADBEEF, 32)
	w.WriteBits(1, 7)
	if w.Len() != 43 {
		t.Fatalf("Len = %d, want 43", w.Len())
	}
	r := NewBitReader(w.Bytes())
	if got := r.ReadBits(3); got != 0b101 {
		t.Errorf("first field = %b", got)
	}
	if got := r.ReadBits(1); got != 0 {
		t.Errorf("second field = %b", got)
	}
	if got := r.ReadBits(32); got != 0xDEADBEEF {
		t.Errorf("third field = %x", got)
	}
	if got := r.ReadBits(7); got != 1 {
		t.Errorf("fourth field = %b", got)
	}
	if r.BitsRead() != 43 {
		t.Errorf("BitsRead = %d, want 43", r.BitsRead())
	}
	// Reading past end yields zeros.
	if got := r.ReadBits(16); got != 0 {
		t.Errorf("past-end read = %x, want 0", got)
	}
}

func TestBitIOProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		type field struct {
			v uint64
			w uint
		}
		fields := make([]field, n)
		var bw BitWriter
		for i := range fields {
			width := uint(1 + rng.Intn(58))
			v := rng.Uint64() & (1<<width - 1)
			fields[i] = field{v, width}
			bw.WriteBits(v, width)
		}
		br := NewBitReader(bw.Bytes())
		for _, f := range fields {
			if got := br.ReadBits(f.w); got != f.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPaperExample verifies the worked example from §3 of the paper:
// N[2]=3, N[3]=1, N[5]=4 gives b_1=0, b_2=0, b_3=6, b_4=14, b_5=28 and
// codewords 00, 01, 10, 110, 11100, 11101, 11110, 11111.
func TestPaperExample(t *testing.T) {
	c := &Code{
		N: []int{0, 0, 3, 1, 0, 4},
		D: []uint32{10, 20, 30, 40, 50, 60, 70, 80},
	}
	wantCodes := []struct {
		bits uint64
		len  uint8
	}{
		{0b00, 2}, {0b01, 2}, {0b10, 2},
		{0b110, 3},
		{0b11100, 5}, {0b11101, 5}, {0b11110, 5}, {0b11111, 5},
	}
	c.buildEncoder()
	for i, v := range c.D {
		cw := c.Lookup(v)
		if cw.bits != wantCodes[i].bits || cw.len != wantCodes[i].len {
			t.Errorf("value %d: codeword %0*b (len %d), want %0*b (len %d)",
				v, cw.len, cw.bits, cw.len, wantCodes[i].len, wantCodes[i].bits, wantCodes[i].len)
		}
	}
	// Decode every codeword back.
	var w BitWriter
	for _, v := range c.D {
		if err := c.Encode(&w, v); err != nil {
			t.Fatal(err)
		}
	}
	r := NewBitReader(w.Bytes())
	for _, want := range c.D {
		got, err := c.Decode(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("decoded %d, want %d", got, want)
		}
	}
}

func TestBuildSingleValue(t *testing.T) {
	c := Build(map[uint32]uint64{42: 7})
	if c.NumValues() != 1 || c.MaxLen() != 1 {
		t.Fatalf("single-value code: NumValues=%d MaxLen=%d", c.NumValues(), c.MaxLen())
	}
	var w BitWriter
	if err := c.Encode(&w, 42); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 1 {
		t.Fatalf("single-value codeword length = %d, want 1", w.Len())
	}
	r := NewBitReader(w.Bytes())
	v, err := c.Decode(r)
	if err != nil || v != 42 {
		t.Fatalf("decode = %d, %v", v, err)
	}
}

func TestBuildEmpty(t *testing.T) {
	c := Build(nil)
	if c.NumValues() != 0 {
		t.Fatal("empty build should have no values")
	}
	var w BitWriter
	if err := c.Encode(&w, 1); err == nil {
		t.Fatal("encoding with empty code should fail")
	}
	if _, err := c.Decode(NewBitReader([]byte{0xFF})); err == nil {
		t.Fatal("decoding with empty code should fail")
	}
}

func TestEncodeUnknownValue(t *testing.T) {
	c := Build(map[uint32]uint64{1: 5, 2: 3})
	var w BitWriter
	if err := c.Encode(&w, 99); err == nil {
		t.Fatal("expected error for value outside code")
	}
}

func TestDecodeInvalidCodeword(t *testing.T) {
	// Code with codewords 0 and 10: the stream 11... is invalid.
	c := Build(map[uint32]uint64{1: 10, 2: 1, 3: 1})
	// Lengths: 1 gets len 1; 2 and 3 get len 2 → codewords 0, 10, 11: all
	// two-bit patterns valid. Construct a truly incomplete code by hand.
	c = &Code{N: []int{0, 1, 1}, D: []uint32{7, 9}} // codewords: 0, 10; "11" invalid
	r := NewBitReader([]byte{0b11000000})
	if _, err := c.Decode(r); err == nil {
		t.Fatal("expected ErrBadCode for invalid codeword")
	}
}

// TestOptimality checks the Huffman optimality property on small inputs by
// comparing against brute force: total coded length must be minimal over all
// prefix codes, which for Huffman we validate via the Kraft equality and a
// sibling-property spot check (equal to entropy bound within 1 bit/symbol).
func TestCodeLengthsSatisfyKraftEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		freq := map[uint32]uint64{}
		n := 2 + rng.Intn(40)
		for i := 0; i < n; i++ {
			freq[uint32(rng.Intn(1000))] = uint64(1 + rng.Intn(10000))
		}
		c := Build(freq)
		// Kraft sum for a complete binary code equals exactly 1.
		var kraft float64
		for i := 1; i <= c.MaxLen(); i++ {
			kraft += float64(c.N[i]) / float64(uint64(1)<<uint(i))
		}
		if kraft < 0.999999 || kraft > 1.000001 {
			t.Fatalf("Kraft sum = %v, want 1 (N=%v)", kraft, c.N)
		}
	}
}

func TestShorterCodewordsForMoreFrequentValues(t *testing.T) {
	freq := map[uint32]uint64{1: 1000, 2: 100, 3: 10, 4: 1}
	c := Build(freq)
	if c.CodeLen(1) > c.CodeLen(2) || c.CodeLen(2) > c.CodeLen(3) || c.CodeLen(3) > c.CodeLen(4) {
		t.Fatalf("codeword lengths not monotone in frequency: %d %d %d %d",
			c.CodeLen(1), c.CodeLen(2), c.CodeLen(3), c.CodeLen(4))
	}
}

func TestEncodeDecodeRandomStreams(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Skewed distribution similar to operand fields.
		nvals := 1 + rng.Intn(60)
		vals := make([]uint32, nvals)
		freq := map[uint32]uint64{}
		for i := range vals {
			vals[i] = uint32(rng.Intn(1 << 16))
		}
		var data []uint32
		for i := 0; i < 500; i++ {
			v := vals[int(float64(nvals)*rng.Float64()*rng.Float64())] // skew to low indices
			data = append(data, v)
			freq[v]++
		}
		c := Build(freq)
		var w BitWriter
		for _, v := range data {
			if err := c.Encode(&w, v); err != nil {
				return false
			}
		}
		r := NewBitReader(w.Bytes())
		for _, want := range data {
			got, err := c.Decode(r)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		freq := map[uint32]uint64{}
		for i := 0; i < 1+rng.Intn(80); i++ {
			freq[uint32(rng.Intn(1<<21))] = uint64(1 + rng.Intn(5000))
		}
		c := Build(freq)
		blob, err := c.MarshalBinary()
		if err != nil {
			return false
		}
		var back Code
		if err := back.UnmarshalBinary(blob); err != nil {
			return false
		}
		return reflect.DeepEqual(c.N, back.N) && reflect.DeepEqual(c.D, back.D)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var c Code
	cases := [][]byte{
		{},
		{0xFF},        // truncated uvarint
		{60},          // maxLen > MaxCodeLen
		{2, 1},        // missing N[2]
		{1, 2, 0},     // N sums to 2 but only one D value
		{1, 1, 5, 99}, // trailing bytes
	}
	for i, b := range cases {
		if err := c.UnmarshalBinary(b); err == nil {
			t.Errorf("case %d: UnmarshalBinary(%v) succeeded, want error", i, b)
		}
	}
}

func TestTableSizeNonzero(t *testing.T) {
	c := Build(map[uint32]uint64{1: 3, 2: 2, 3: 1})
	if c.TableSize() <= 0 {
		t.Fatal("TableSize should be positive for a nonempty code")
	}
}

func TestDecodeCountsBits(t *testing.T) {
	c := Build(map[uint32]uint64{1: 8, 2: 4, 3: 2, 4: 1, 5: 1})
	var w BitWriter
	seq := []uint32{1, 1, 5, 2, 3}
	var wantBits int
	for _, v := range seq {
		_ = c.Encode(&w, v)
		wantBits += c.CodeLen(v)
	}
	r := NewBitReader(w.Bytes())
	for range seq {
		if _, err := c.Decode(r); err != nil {
			t.Fatal(err)
		}
	}
	if r.BitsRead() != wantBits {
		t.Fatalf("BitsRead = %d, want %d", r.BitsRead(), wantBits)
	}
}
