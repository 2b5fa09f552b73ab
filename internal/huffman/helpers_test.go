package huffman

// TableSize reports the serialized size in bytes of the code's N and D
// arrays — the per-stream table overhead counted against compression.
func (c *Code) TableSize() int {
	b, err := c.MarshalBinary()
	if err != nil {
		return 0
	}
	return len(b)
}
