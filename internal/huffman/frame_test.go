package huffman

import (
	"bytes"
	"testing"
)

// TestFrameRoundTrip: codes framed by AppendCodes behind a length read
// back unchanged, the layout is a little-endian three-byte length before
// each table, and every truncation or overrun is refused.
func TestFrameRoundTrip(t *testing.T) {
	codes := []*Code{
		Build(map[uint32]uint64{1: 5, 2: 3, 7: 1}),
		Build(map[uint32]uint64{}),
		Build(map[uint32]uint64{42: 9}),
	}
	out, err := AppendLen24([]byte{0xAA}, 0x030201)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte{0xAA, 1, 2, 3}) {
		t.Fatalf("AppendLen24 wrote % x", out)
	}
	out, err = AppendCodes(out[:1], codes...)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := codes[0].MarshalBinary()
	if out[1] != byte(len(first)) || out[2] != 0 || out[3] != 0 || !bytes.Equal(out[4:4+len(first)], first) {
		t.Fatalf("first frame is % x, want a length of %d and the table", out[1:4+len(first)], len(first))
	}
	back, next, err := ReadCodes(out, 1, len(codes))
	if err != nil {
		t.Fatal(err)
	}
	if next != len(out) {
		t.Fatalf("ReadCodes stopped at %d of %d bytes", next, len(out))
	}
	again, err := AppendCodes([]byte{0xAA}, back...)
	if err != nil || !bytes.Equal(again, out) {
		t.Fatalf("re-framed codes differ: %v", err)
	}
	for n := 1; n < len(out); n++ {
		if _, _, err := ReadCodes(out[:n], 1, len(codes)); err == nil {
			t.Errorf("truncation to %d of %d bytes accepted", n, len(out))
		}
	}

	if _, err := AppendLen24(nil, 1<<24); err == nil {
		t.Error("AppendLen24 accepted a length of 2^24")
	}
	if _, _, err := ReadLen24([]byte{2, 0, 0, 1, 2, 3, 4, 5, 6, 7}, 0, 4); err == nil {
		t.Error("ReadLen24 accepted 2 four-byte items in 7 bytes")
	}
	if n, next, err := ReadLen24([]byte{2, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}, 0, 4); err != nil || n != 2 || next != 3 {
		t.Errorf("ReadLen24 = %d, %d, %v; want 2, 3, nil", n, next, err)
	}
}
