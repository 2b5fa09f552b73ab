package huffman

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
)

// MaxCodeLen bounds codeword lengths. Huffman codes over realistic operand
// streams stay far below this; the bound exists so the decoder's length loop
// is provably finite on corrupted input.
const MaxCodeLen = 58

// Code is a canonical Huffman code for a set of uint32 values. It carries
// exactly the two arrays the paper's decoder needs: the length histogram N
// and the value array D ordered by codeword.
type Code struct {
	// N[i] is the number of codewords of length i; N[0] is unused and zero.
	N []int
	// D holds the coded values ordered by codeword value (ties cannot occur;
	// within one length, values are assigned codewords in ascending value
	// order, making the code deterministic).
	D []uint32

	// dense and enc map a value to its codeword; one of them is derived
	// from N and D on demand. dense, indexed by value, serves codes whose
	// values all lie below denseLimit (opcode, register, func and literal
	// streams); enc serves the wide ones (displacements, hints).
	dense []codeword
	enc   map[uint32]codeword
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

// codeword is one value's code; len 0 marks a value absent from dense.
type codeword struct {
	bits uint64
	len  uint8
}

// denseLimit bounds the values of a code encoded through the dense table.
// 256 covers every 5- and 8-bit operand stream in a 4 KiB table.
const denseLimit = 256

// node is a Huffman tree node used only during construction.
type node struct {
	freq        uint64
	value       uint32
	left, right *node
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	// Tie-break on value for deterministic trees. Internal nodes carry the
	// minimum value of their subtree.
	return h[i].value < h[j].value
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any     { old := *h; n := old[len(old)-1]; *h = old[:len(old)-1]; return n }

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
func BuildSorted(values []uint32, freqs []uint64) *Code {
	if len(values) == 0 {
		return &Code{N: []int{0}}
	}
	if len(values) == 1 {
		return &Code{N: []int{0, 1}, D: values}
	}

	h := make(nodeHeap, 0, len(values))
	for i, v := range values {
		h = append(h, &node{freq: freqs[i], value: v})
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*node)
		b := heap.Pop(&h).(*node)
		m := a.value
		if b.value < m {
			m = b.value
		}
		heap.Push(&h, &node{freq: a.freq + b.freq, value: m, left: a, right: b})
	}
	root := h[0]

	// Collect depth of every leaf; the canonical code keeps only lengths.
	type leafDepth struct {
		value uint32
		depth int
	}
	var leaves []leafDepth
	var walk func(n *node, d int)
	walk = func(n *node, d int) {
		if n.left == nil {
			if d == 0 {
				d = 1 // single-leaf tree cannot occur here, but be safe
			}
			leaves = append(leaves, leafDepth{n.value, d})
			return
		}
		walk(n.left, d+1)
		walk(n.right, d+1)
	}
	walk(root, 0)

	maxLen := 0
	for _, l := range leaves {
		if l.depth > maxLen {
			maxLen = l.depth
		}
	}
	if maxLen > MaxCodeLen {
		// Unreachable for the stream sizes this system compresses (depth k
		// requires total frequency ≥ Fib(k)), but guard anyway.
		panic(fmt.Sprintf("huffman: codeword length %d exceeds MaxCodeLen", maxLen))
	}

	c := &Code{N: make([]int, maxLen+1)}
	for _, l := range leaves {
		c.N[l.depth]++
	}
	// Canonical order: by length, then by value.
	sort.Slice(leaves, func(i, j int) bool {
		if leaves[i].depth != leaves[j].depth {
			return leaves[i].depth < leaves[j].depth
		}
		return leaves[i].value < leaves[j].value
	})
	c.D = make([]uint32, len(leaves))
	for i, l := range leaves {
		c.D[i] = l.value
	}
	return c
}

// NumValues reports how many distinct values the code encodes.
func (c *Code) NumValues() int { return len(c.D) }

// MaxLen reports the longest codeword length.
func (c *Code) MaxLen() int { return len(c.N) - 1 }

// buildEncoder materializes the value→codeword table from N and D,
// assigning the canonical codewords b_i, b_i+1, ... of each length i where
// b_1 = 0 and b_i = 2(b_{i-1} + N[i-1]).
func (c *Code) buildEncoder() {
	var maxV uint32
	for _, v := range c.D {
		maxV = max(maxV, v)
	}
	if maxV < denseLimit {
		c.dense = make([]codeword, maxV+1)
	} else {
		c.enc = make(map[uint32]codeword, len(c.D))
	}
	var b uint64
	j := 0
	for i := 1; i <= c.MaxLen(); i++ {
		if i > 1 {
			b = 2 * (b + uint64(c.N[i-1]))
		}
		for k := 0; k < c.N[i]; k++ {
			cw := codeword{bits: b + uint64(k), len: uint8(i)}
			if c.dense != nil {
				c.dense[c.D[j]] = cw
			} else {
				c.enc[c.D[j]] = cw
			}
			j++
		}
	}
}

// lookup returns v's codeword, building the encoder on first use.
func (c *Code) lookup(v uint32) (codeword, bool) {
	if c.dense == nil && c.enc == nil {
		c.buildEncoder()
	}
	if c.dense != nil {
		if uint64(v) >= uint64(len(c.dense)) {
			return codeword{}, false
		}
		cw := c.dense[v]
		return cw, cw.len != 0
	}
	cw, ok := c.enc[v]
	return cw, ok
}

// Prime materializes the encoder table and the decode table eagerly.
// Encode, CodeLen, and Decode build them lazily on first use, which is a
// data race if a shared Code is first used from concurrent encoders or
// decoders; callers that fan coding out across goroutines must Prime each
// code beforehand.
func (c *Code) Prime() {
	if c.dense == nil && c.enc == nil {
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
	cw, ok := c.lookup(v)
	if !ok {
		return fmt.Errorf("huffman: value %d not present in code", v)
	}
	w.WriteBits(cw.bits, uint(cw.len))
	return nil
}

// CodeLen reports the codeword length in bits for v, or 0 if absent.
func (c *Code) CodeLen(v uint32) int {
	cw, _ := c.lookup(v)
	return int(cw.len)
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
