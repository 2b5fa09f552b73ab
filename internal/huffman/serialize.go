package huffman

import (
	"encoding/binary"
	"fmt"
)

// The compressed program stores, for each stream, the "code representation
// (the array N[i]) and value list (the array D[j])" (paper, §3). This file
// gives those arrays a compact byte encoding so that their space cost is
// charged against the compressed program size exactly as in the paper.

// MarshalBinary encodes the code tables as:
//
//	uvarint maxLen
//	uvarint N[1] .. N[maxLen]
//	uvarint delta-encoded D values per length class (ascending within class)
func (c *Code) MarshalBinary() ([]byte, error) {
	buf := binary.AppendUvarint(nil, uint64(c.MaxLen()))
	for i := 1; i <= c.MaxLen(); i++ {
		buf = binary.AppendUvarint(buf, uint64(c.N[i]))
	}
	j := 0
	for i := 1; i <= c.MaxLen(); i++ {
		prev := uint64(0)
		for k := 0; k < c.N[i]; k++ {
			v := uint64(c.D[j])
			var delta uint64
			if k == 0 {
				delta = v
			} else {
				delta = v - prev // ascending within a length class
			}
			buf = binary.AppendUvarint(buf, delta)
			prev = v
			j++
		}
	}
	if j != len(c.D) {
		return nil, fmt.Errorf("huffman: N sums to %d codewords but D has %d values", j, len(c.D))
	}
	return buf, nil
}

// UnmarshalBinary decodes tables produced by MarshalBinary.
func (c *Code) UnmarshalBinary(data []byte) error {
	pos := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("huffman: truncated code table at byte %d", pos)
		}
		pos += n
		return v, nil
	}
	maxLen, err := next()
	if err != nil {
		return err
	}
	if maxLen > MaxCodeLen {
		return fmt.Errorf("huffman: declared max codeword length %d exceeds limit %d", maxLen, MaxCodeLen)
	}
	c.N = make([]int, maxLen+1)
	total := 0
	for i := 1; i <= int(maxLen); i++ {
		n, err := next()
		if err != nil {
			return err
		}
		c.N[i] = int(n)
		total += int(n)
		if total > 1<<26 {
			return fmt.Errorf("huffman: implausible codeword count %d", total)
		}
	}
	c.D = make([]uint32, 0, total)
	for i := 1; i <= int(maxLen); i++ {
		var prev uint64
		for k := 0; k < c.N[i]; k++ {
			d, err := next()
			if err != nil {
				return err
			}
			var v uint64
			if k == 0 {
				v = d
			} else {
				v = prev + d
			}
			if v > 1<<32-1 {
				return fmt.Errorf("huffman: value %d exceeds 32 bits", v)
			}
			c.D = append(c.D, uint32(v))
			prev = v
		}
	}
	if pos != len(data) {
		return fmt.Errorf("huffman: %d trailing bytes after code table", len(data)-pos)
	}
	// Tables read back serve a decoder, which never encodes: the encoder is
	// left unbuilt (Prime builds it), so loading an image costs no encode
	// tables, and a hostile table blob cannot make them large.
	c.dense, c.wide = nil, nil
	c.dec = nil
	return nil
}
