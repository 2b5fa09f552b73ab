package huffman

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

// MaxCodeLen bounds codeword lengths. Huffman codes over realistic operand
// streams stay far below this; the bound exists so the decoder's length loop
// is provably finite on corrupted input.
const MaxCodeLen = 58

// Code is a canonical Huffman code for a set of uint32 values. It carries
// exactly the two arrays the paper's decoder needs: the length histogram N
// and the value array D ordered by codeword. Build and BuildSorted return a
// code ready to encode; a Code assembled by hand from N and D, or read by
// UnmarshalBinary, encodes only after Prime.
type Code struct {
	// N[i] is the number of codewords of length i; N[0] is unused and zero.
	N []int
	// D holds the coded values ordered by codeword value (ties cannot occur;
	// within one length, values are assigned codewords in ascending value
	// order, making the code deterministic).
	D []uint32

	// dense and wide map a value to its codeword; one of them is built
	// from N and D with the code. dense, indexed by value, serves codes
	// whose values all lie below denseLimit (opcode, register, func and
	// literal streams); wide, an open-addressed table, serves the wide ones
	// (displacements, hints, PAL codes).
	dense     []Codeword
	wide      []wideSlot
	wideShift uint8 // 32 - log2(len(wide))
	// dec is the first-K-bits decode table (decode.go), derived on demand.
	dec *decTable

	// Stats counts which decode path resolved each codeword. Plain
	// fields, not atomics: a Code is not safe for concurrent decoding
	// anyway (Decode lazily builds dec), so the counters add no new
	// constraint. Telemetry only — decoding is bit-identical regardless.
	Stats DecodeStats
}

// DecodeStats tallies decode-path usage for one code (see Code.Stats).
type DecodeStats struct {
	// TableHits resolved from the first-DecodeTableBits lookup table.
	TableHits uint64 `json:"table_hits"`
	// WidePeeks resolved from the 57-bit peek + length scan.
	WidePeeks uint64 `json:"wide_peeks"`
	// TreeDecodes went through the reference DECODE() loop (slow-decode
	// mode, irregular tables, or codewords beyond the peek window).
	TreeDecodes uint64 `json:"tree_decodes"`
}

// AddTo accumulates s into total; used to aggregate across streams.
func (s DecodeStats) AddTo(total *DecodeStats) {
	total.TableHits += s.TableHits
	total.WidePeeks += s.WidePeeks
	total.TreeDecodes += s.TreeDecodes
}

// Codeword is one value's code, as Dense and Lookup return it for
// BitWriter.Put; length 0 marks a value absent from the code.
type Codeword struct {
	bits uint64
	len  uint8
}

// denseLimit bounds the values of a code encoded through the dense table.
// 256 covers every 5- and 8-bit operand stream in a 4 KiB table.
const denseLimit = 256

// wideSlot is one entry of the open-addressed table that serves codes with
// values at or above denseLimit; cw.len 0 marks an empty slot.
type wideSlot struct {
	cw  Codeword
	val uint32
}

// wideIndex is the home slot of v in a table of 1<<(32-shift) slots: the
// top bits of a Fibonacci hash, which spreads the clustered displacement
// and hint values of real streams.
func wideIndex(v uint32, shift uint8) uint32 { return v * 0x9E3779B1 >> shift }

// Build constructs a canonical Huffman code from a value-frequency map.
// Values with zero frequency are ignored. An empty map yields an empty code
// whose encoder rejects every value. A single-value map yields a one-bit
// code, as in the paper's formulation (there is no zero-length codeword).
func Build(freq map[uint32]uint64) *Code {
	values := make([]uint32, 0, len(freq))
	for v, f := range freq {
		if f > 0 {
			values = append(values, v)
		}
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	freqs := make([]uint64, len(values))
	for i, v := range values {
		freqs[i] = freq[v]
	}
	return BuildSorted(values, freqs)
}

// BuildSorted is Build over a frequency table already in value order:
// values ascend strictly and freqs[i], nonzero, is the frequency of
// values[i]. A one-value code keeps values as its table, so the caller
// must not reuse it.
//
// The Huffman tree lives in one array: leaves 0..n-1 in value order, then
// each merged node in creation order, so a parent always follows its
// children and the root is last. A heap of node indices repeatedly merges
// the two least nodes by (frequency, smallest value in the subtree). Live
// subtrees are disjoint, so no two live nodes share a smallest value, the
// order is total, and the merges (hence the codeword lengths) are the ones
// any heap yields. The canonical code then needs only the leaf depths:
// values keep their ascending order within each length.
func BuildSorted(values []uint32, freqs []uint64) *Code {
	n := len(values)
	if n == 0 {
		return &Code{N: []int{0}}
	}
	if n == 1 {
		c := &Code{N: []int{0, 1}, D: values}
		c.buildEncoder()
		return c
	}

	nodes := make([]treeNode, n, 2*n-1)
	h := make(nodeHeap, n)
	for i, v := range values {
		nodes[i] = treeNode{freq: freqs[i], value: v}
		h[i] = int32(i)
	}
	h.init(nodes)
	for len(h) > 1 {
		a := h.pop(nodes)
		b := h.pop(nodes)
		m := int32(len(nodes))
		nodes[a].up, nodes[b].up = m, m
		nodes = append(nodes, treeNode{
			freq:  nodes[a].freq + nodes[b].freq,
			value: min(nodes[a].value, nodes[b].value),
		})
		h.push(nodes, m)
	}

	// Depths top-down: a parent's index exceeds its children's, so walking
	// down from the root finds each parent's depth already stored in its up
	// field, which then holds the node's own depth.
	root := len(nodes) - 1
	nodes[root].up = 0
	var count [MaxCodeLen + 2]int
	maxLen := 0
	for i := root - 1; i >= 0; i-- {
		d := nodes[nodes[i].up].up + 1
		nodes[i].up = d
		if i < n {
			if int(d) > MaxCodeLen {
				// Unreachable for the stream sizes this system compresses
				// (depth k requires total frequency ≥ Fib(k)), but guard
				// anyway.
				panic(fmt.Sprintf("huffman: codeword length %d exceeds MaxCodeLen", d))
			}
			count[d]++
			maxLen = max(maxLen, int(d))
		}
	}

	// Canonical order, by length then by value: a counting sort over the
	// lengths that visits the leaves in value order.
	c := &Code{N: make([]int, maxLen+1), D: make([]uint32, n)}
	next := 0
	for l := 1; l <= maxLen; l++ {
		c.N[l] = count[l]
		count[l], next = next, next+count[l]
	}
	for i := range values {
		d := nodes[i].up
		c.D[count[d]] = values[i]
		count[d]++
	}
	c.buildEncoder()
	return c
}

// treeNode is one Huffman tree node during construction: a leaf (a value)
// or a merged subtree. value is the smallest value in the subtree; up is
// the parent's index until the depth pass stores the node's depth there.
type treeNode struct {
	freq  uint64
	value uint32
	up    int32
}

// nodeHeap is a binary min-heap of tree-node indices ordered by
// (freq, value).
type nodeHeap []int32

func less(nodes []treeNode, a, b int32) bool {
	if nodes[a].freq != nodes[b].freq {
		return nodes[a].freq < nodes[b].freq
	}
	return nodes[a].value < nodes[b].value
}

func (h nodeHeap) init(nodes []treeNode) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(nodes, i)
	}
}

func (h nodeHeap) down(nodes []treeNode, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && less(nodes, h[r], h[l]) {
			m = r
		}
		if !less(nodes, h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (h *nodeHeap) pop(nodes []treeNode) int32 {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	h.down(nodes, 0)
	return top
}

func (h *nodeHeap) push(nodes []treeNode, x int32) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !less(nodes, s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// NumValues reports how many distinct values the code encodes.
func (c *Code) NumValues() int { return len(c.D) }

// MaxLen reports the longest codeword length.
func (c *Code) MaxLen() int { return len(c.N) - 1 }

// buildEncoder materializes the value→codeword table from N and D,
// assigning the canonical codewords b_i, b_i+1, ... of each length i where
// b_1 = 0 and b_i = 2(b_{i-1} + N[i-1]). Codes whose values all lie below
// denseLimit get a table indexed by value; wider ones an open-addressed
// table of at least twice as many slots as values, probed linearly.
func (c *Code) buildEncoder() {
	var maxV uint32
	for _, v := range c.D {
		maxV = max(maxV, v)
	}
	c.dense, c.wide = nil, nil
	if maxV < denseLimit {
		c.dense = make([]Codeword, maxV+1)
	} else {
		k := bits.Len(uint(2*len(c.D) - 1))
		c.wide = make([]wideSlot, 1<<k)
		c.wideShift = uint8(32 - k)
	}
	var b uint64
	j := 0
	for i := 1; i <= c.MaxLen(); i++ {
		if i > 1 {
			b = 2 * (b + uint64(c.N[i-1]))
		}
		for k := 0; k < c.N[i] && j < len(c.D); k++ {
			cw := Codeword{bits: b + uint64(k), len: uint8(i)}
			if c.dense != nil {
				c.dense[c.D[j]] = cw
			} else {
				c.insertWide(c.D[j], cw)
			}
			j++
		}
	}
}

// insertWide stores v's codeword in the open-addressed table. A value that
// repeats in D (possible only in corrupt tables) keeps its last codeword,
// as the dense table does.
func (c *Code) insertWide(v uint32, cw Codeword) {
	mask := uint32(len(c.wide) - 1)
	for i := wideIndex(v, c.wideShift); ; i = (i + 1) & mask {
		s := &c.wide[i]
		if s.cw.len == 0 || s.val == v {
			*s = wideSlot{cw: cw, val: v}
			return
		}
	}
}

// Dense returns v's codeword from the dense table: the whole lookup for a
// code whose values all lie below 256, which every stream of at most 8
// bits is. For a value outside the table, or a code with the wide table,
// it returns the absent codeword. It inlines, as Lookup and BitWriter.Put
// do, so a coder that knows a stream's width writes a field with neither a
// call nor a dense-or-wide branch.
func (c *Code) Dense(v uint32) Codeword {
	if v < uint32(len(c.dense)) {
		return c.dense[v]
	}
	return Codeword{}
}

// Lookup returns v's codeword from whichever table the code has; length 0
// means v is not in the code.
func (c *Code) Lookup(v uint32) Codeword {
	if c.wide == nil {
		return c.Dense(v)
	}
	mask := uint32(len(c.wide) - 1)
	for i := wideIndex(v, c.wideShift); ; i = (i + 1) & mask {
		s := &c.wide[i]
		if s.cw.len == 0 || s.val == v {
			return s.cw
		}
	}
}

// Prime materializes the decode table eagerly, and the encoder of a code
// that has none (Build and BuildSorted build it; a Code assembled by hand
// or read by UnmarshalBinary does not have it). Decode builds its table
// lazily on first use, which is a data race if a shared Code is first used
// from concurrent decoders; callers that fan decoding out across
// goroutines must Prime each code beforehand.
func (c *Code) Prime() {
	if c.dense == nil && c.wide == nil {
		c.buildEncoder()
	}
	if c.dec == nil {
		c.buildDecoder()
	}
}

// Encode appends the codeword for v to w. It returns an error if v is not in
// the code, which indicates the frequency pass and the encode pass saw
// different data.
func (c *Code) Encode(w *BitWriter, v uint32) error {
	cw := c.Lookup(v)
	if cw.len == 0 {
		return absent(v)
	}
	if !w.Put(cw) {
		w.writeWide(cw.bits, uint(cw.len))
	}
	return nil
}

// absent is Encode's error for a value outside the code, kept out of line
// so the encode path stays small.
//
//go:noinline
func absent(v uint32) error { return fmt.Errorf("huffman: value %d not present in code", v) }

// CodeLen reports the codeword length in bits for v, or 0 if absent.
func (c *Code) CodeLen(v uint32) int {
	return int(c.Lookup(v).len)
}

// ErrBadCode reports a codeword that exceeds every valid length, meaning the
// bit stream and the code disagree.
var ErrBadCode = errors.New("huffman: invalid codeword in stream")

// DecodeTree reads one codeword from r and returns its value. This is a
// direct transcription of the paper's DECODE() procedure, consuming one bit
// per iteration:
//
//	v <- 0, b <- 0, j <- 0, i <- 0
//	do
//	    v <- 2v + NEXTBIT()
//	    b <- 2(b + N[i])
//	    j <- j + N[i]
//	    i <- i + 1
//	while v >= b + N[i]
//	return D[j + v - b]
//
// It is the reference decoder: Decode (decode.go) resolves short codewords
// by table lookup and delegates long ones here, and the fast-path-disabled
// runtime mode uses it exclusively.
func (c *Code) DecodeTree(r *BitReader) (uint32, error) {
	c.Stats.TreeDecodes++
	if len(c.D) == 0 {
		return 0, ErrBadCode
	}
	var v, b uint64
	j, i := 0, 0
	for {
		v = 2*v + uint64(r.ReadBit())
		b = 2 * (b + uint64(c.N[i]))
		j += c.N[i]
		i++
		// Loop exit (the paper's "while v >= b + N[i]" inverted): the i-bit
		// prefix v falls inside the length-i codeword block [b, b+N[i]).
		if v < b+uint64(c.N[i]) {
			idx := j + int(v-b)
			if v < b || idx >= len(c.D) {
				return 0, ErrBadCode
			}
			return c.D[idx], nil
		}
		if i >= len(c.N)-1 {
			return 0, ErrBadCode
		}
	}
}
