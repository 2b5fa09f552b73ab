package huffman

import "fmt"

// Table framing. A region coder serializes its code tables, and the lists
// that ride along with them (the LZ dictionary, the MTF alphabets), as a
// sequence of entries each behind a three-byte little-endian length. Both
// coders frame through these helpers, so the layout is written and
// checked in one place.

// maxLen24 is the largest length a three-byte prefix holds.
const maxLen24 = 1<<24 - 1

// AppendLen24 appends n as a three-byte little-endian length prefix.
func AppendLen24(out []byte, n int) ([]byte, error) {
	if n < 0 || n > maxLen24 {
		return nil, fmt.Errorf("huffman: length %d does not fit 24 bits", n)
	}
	return append(out, byte(n), byte(n>>8), byte(n>>16)), nil
}

// ReadLen24 reads the length prefix AppendLen24 wrote at data[pos:] and
// returns it with the position after it. It fails unless at least n*unit
// bytes follow, so a caller that sizes a list of n items, each at least
// unit bytes long, allocates no more than the input pays for.
func ReadLen24(data []byte, pos, unit int) (n, next int, err error) {
	if pos+3 > len(data) {
		return 0, 0, fmt.Errorf("huffman: truncated length at byte %d", pos)
	}
	n = int(data[pos]) | int(data[pos+1])<<8 | int(data[pos+2])<<16
	next = pos + 3
	if n*unit > len(data)-next {
		return 0, 0, fmt.Errorf("huffman: length %d at byte %d overruns the %d bytes left", n, pos, len(data)-next)
	}
	return n, next, nil
}

// AppendCodes appends each code's serialized table (MarshalBinary) behind
// its byte length.
func AppendCodes(out []byte, codes ...*Code) ([]byte, error) {
	for _, c := range codes {
		blob, err := c.MarshalBinary()
		if err != nil {
			return nil, err
		}
		if out, err = AppendLen24(out, len(blob)); err != nil {
			return nil, err
		}
		out = append(out, blob...)
	}
	return out, nil
}

// ReadCodes reads n tables AppendCodes wrote at data[pos:] and returns them
// with the position after the last.
func ReadCodes(data []byte, pos, n int) ([]*Code, int, error) {
	codes := make([]*Code, n)
	for i := range codes {
		size, p, err := ReadLen24(data, pos, 1)
		if err != nil {
			return nil, 0, fmt.Errorf("code %d: %w", i, err)
		}
		codes[i] = new(Code)
		if err := codes[i].UnmarshalBinary(data[p : p+size]); err != nil {
			return nil, 0, fmt.Errorf("code %d: %w", i, err)
		}
		pos = p + size
	}
	return codes, pos, nil
}
