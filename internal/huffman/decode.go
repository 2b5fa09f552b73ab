package huffman

// Table-driven decoding. The paper's DECODE() loop (see DecodeTree) walks
// the length histogram one bit at a time; Decode instead peeks upcoming
// bits from the reader's refill buffer and resolves codewords of length
// ≤ DecodeTableBits with a single table lookup. Longer codewords are
// resolved from one wide peek against precomputed per-length limit values —
// the same canonical arithmetic, without the per-bit loop. Canonical
// codewords are prefix-free, so table entries of distinct codewords never
// overlap, and every path consumes exactly the bits of the decoded
// codeword: the simulated bit-read count (and with it the cycle model) is
// identical to the reference decoder's.

// DecodeTableBits is the first-K-bits lookup width. Real operand streams
// decode almost entirely below this length; longer codewords take the
// wide-peek path.
const DecodeTableBits = 11

// decEntry resolves one K-bit prefix in four bytes: the decoded value
// above decLenBits bits of codeword length, sym<<decLenBits | len. A zero
// length marks a prefix that no codeword of length ≤ K matches (either a
// longer codeword or, for corrupt tables, no codeword at all), or one
// whose value is too wide to pack; those decode through the wide path or
// DecodeTree.
type decEntry uint32

// decLenBits holds codeword lengths up to DecodeTableBits.
const decLenBits = 4

// maxEntrySym bounds the values an entry can hold.
const maxEntrySym = 1<<(32-decLenBits) - 1

type decTable struct {
	// entries is indexed by the next DecodeTableBits bits of the stream.
	// A fixed-size array keeps the hot lookup free of bounds checks.
	entries *[1 << DecodeTableBits]decEntry
	maxLen  uint
	// Per-length canonical decode state, indexed by codeword length i:
	// base[i] is the first codeword value b_i, jbase[i] is the index in D
	// of the first length-i value, and wlim[i] is (b_i + N[i]), the first
	// invalid length-i prefix, left-aligned to maxLen bits so a maxLen-bit
	// peek w encodes a valid length-i codeword iff w < wlim[i].
	base, wlim []uint64
	jbase      []int
}

// regular reports whether (N, D) describe a well-formed canonical code:
// codeword counts never exceed the available prefixes at any length (the
// Kraft condition, which also makes the canonical codewords prefix-free)
// and the counts sum to exactly len(D). Build always produces regular
// codes; deserialized tables may not be, and irregular ones decode through
// the reference path only, so corrupt inputs fail identically on both
// paths.
func (c *Code) regular() bool {
	var b uint64
	total := 0
	for i := 1; i <= c.MaxLen(); i++ {
		if i > 1 {
			b = 2 * (b + uint64(c.N[i-1]))
		}
		if i > 63 || b+uint64(c.N[i]) > 1<<uint(i) {
			return false
		}
		total += c.N[i]
	}
	return total == len(c.D)
}

// buildDecoder materializes the decode acceleration structures from N and D
// by enumerating the canonical codewords b_i, b_i+1, … of each length. For
// irregular tables it builds an empty decoder (maxLen 0, no entries), which
// routes every Decode through DecodeTree.
func (c *Code) buildDecoder() {
	t := &decTable{entries: new([1 << DecodeTableBits]decEntry)}
	if !c.regular() {
		c.dec = t
		return
	}
	maxLen := c.MaxLen()
	t.maxLen = uint(maxLen)
	t.base = make([]uint64, maxLen+1)
	t.wlim = make([]uint64, maxLen+1)
	t.jbase = make([]int, maxLen+1)
	var b uint64
	j := 0
	for i := 1; i <= maxLen; i++ {
		if i > 1 {
			b = 2 * (b + uint64(c.N[i-1]))
		}
		t.base[i] = b
		if i <= 57 {
			t.wlim[i] = (b + uint64(c.N[i])) << uint(57-i)
		}
		t.jbase[i] = j
		for n := 0; n < c.N[i]; n++ {
			if i <= DecodeTableBits {
				lo := (b + uint64(n)) << uint(DecodeTableBits-i)
				hi := lo + 1<<uint(DecodeTableBits-i)
				for e := lo; e < hi; e++ {
					if v := c.D[j]; v <= maxEntrySym {
						t.entries[e] = decEntry(v<<decLenBits | uint32(i))
					}
				}
			}
			j++
		}
	}
	c.dec = t
}

// Decode reads one codeword from r and returns its value. Codewords of
// length ≤ DecodeTableBits resolve with one table lookup; longer ones with
// one wide peek and a short length scan. Anything irregular (codewords
// wider than the peek window, corrupt tables) falls back to DecodeTree,
// which — nothing having been consumed yet — replays the reference
// behaviour exactly, error cases included.
func (c *Code) Decode(r *BitReader) (uint32, error) {
	if c.dec == nil {
		if len(c.D) == 0 {
			return 0, ErrBadCode
		}
		c.buildDecoder()
	}
	t := c.dec
	if r.nbits < DecodeTableBits {
		r.refill()
	}
	e := t.entries[r.bitbuf>>(64-DecodeTableBits)]
	if n := uint(e & (1<<decLenBits - 1)); n != 0 {
		r.bitbuf <<= n
		r.nbits -= n
		r.pos += int(n)
		c.Stats.TableHits++
		return uint32(e >> decLenBits), nil
	}
	if t.maxLen > 57 || len(c.D) == 0 {
		// MaxCodeLen allows lengths one beyond the peek window; such codes
		// cannot arise from realistic streams, so take the reference path.
		return c.DecodeTree(r)
	}
	// Peek a fixed 57 bits and scan lengths against the left-aligned
	// limits; the first length whose limit exceeds the window holds the
	// codeword.
	w := r.peek(57)
	for i := uint(DecodeTableBits + 1); i <= t.maxLen; i++ {
		if w < t.wlim[i] {
			v := w >> (57 - i)
			if v < t.base[i] {
				break // corrupt tables; defer to the reference decoder
			}
			idx := t.jbase[i] + int(v-t.base[i])
			if idx >= len(c.D) {
				break
			}
			r.skip(i)
			c.Stats.WidePeeks++
			return c.D[idx], nil
		}
	}
	return c.DecodeTree(r)
}
