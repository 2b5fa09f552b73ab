// Package lzcomp implements an alternative region coder: LZ-style
// dictionary compression over instruction words, in the spirit of Lucco's
// split-stream dictionary program compression cited by the paper ([19],
// §8), and of the paper's closing remark that "other algorithms for
// compression and decompression" are worth exploring (§9).
//
// The coder treats a region as a sequence of 32-bit instruction words and
// emits two kinds of tokens:
//
//   - literal: an index into a program-wide dictionary of frequent words
//     (or an escaped raw 32-bit word when outside the dictionary);
//   - match: a (distance, length) back-reference into the already-emitted
//     words of the same region.
//
// Token kinds, dictionary indices, distances, and lengths are each coded
// with their own canonical Huffman code, reusing the paper's decoder
// machinery. Compared with the split-stream coder it is simpler and decodes
// fewer codewords per instruction, but it cannot exploit operand-field
// structure, so its compression factor is worse on code whose redundancy is
// at the field level; BenchmarkCoderComparison quantifies the trade-off.
package lzcomp

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/huffman"
	"repro/internal/isa"
)

// Token kinds in the kind stream.
const (
	kindDict  = 0 // dictionary literal
	kindRaw   = 1 // escaped raw word (32 bits follow)
	kindMatch = 2 // back-reference (distance, length)
	kindEnd   = 3 // region terminator
)

// Match-search parameters.
const (
	maxDistance = 255
	maxLength   = 32
	minLength   = 2
	// dictSize bounds the program-wide word dictionary.
	dictSize = 512
)

// Compressor holds the trained codes and dictionary.
type Compressor struct {
	dict    []uint32 // frequent words, index-coded
	dictIdx map[uint32]int

	kindCode *huffman.Code
	dictCode *huffman.Code
	distCode *huffman.Code
	lenCode  *huffman.Code

	// slowDecode routes every codeword decode through the reference
	// bit-at-a-time decoder (huffman.Code.DecodeTree) instead of the
	// table-driven one, the same switch streamcomp exposes: both consume
	// identical bits, so the runtime's fast-path-disabled mode can verify
	// the fast decoder end to end. Raw 32-bit words are not codewords and
	// read the same either way.
	slowDecode bool

	// estBitsPerWord is the expected coded size of one instruction word,
	// rounded up, computed by Train from the token statistics the codes were
	// built from. It sizes the pooled per-region writers (see SizeHint); zero
	// means untrained or deserialized, which falls back to a conservative
	// default.
	estBitsPerWord int
}

// SetSlowDecode selects the reference Huffman decoder for all subsequent
// Decompress calls (true) or the table-driven one (false, the default).
func (c *Compressor) SetSlowDecode(v bool) { c.slowDecode = v }

// codes lists the four token codes in serialization order.
func (c *Compressor) codes() [4]*huffman.Code {
	return [4]*huffman.Code{c.kindCode, c.dictCode, c.distCode, c.lenCode}
}

// decodeSym reads one codeword of code, honoring the slow-decode switch.
func (c *Compressor) decodeSym(code *huffman.Code, r *huffman.BitReader) (uint32, error) {
	if c.slowDecode {
		return code.DecodeTree(r)
	}
	return code.Decode(r)
}

// token is the unit the two passes agree on.
type token struct {
	kind      int
	dictIdx   int
	raw       uint32
	dist, len int
}

// encScratch is the per-Compress token list, recycled through encPool so a
// warm encode does not allocate it.
type encScratch struct {
	toks []token
}

// decScratch is the per-Decompress back-reference window, recycled likewise.
type decScratch struct {
	words []uint32
}

var encPool = sync.Pool{New: func() any { return new(encScratch) }}
var decPool = sync.Pool{New: func() any { return new(decScratch) }}

// tokenize converts a word sequence into tokens using greedy longest-match.
func (c *Compressor) tokenize(words []uint32) []token {
	return c.appendTokens(nil, words)
}

// appendTokens is tokenize into caller-owned storage: it appends the token
// sequence for words to dst and returns the extended slice, so the pooled
// encode path reuses one grown token buffer per region.
func (c *Compressor) appendTokens(dst []token, words []uint32) []token {
	out := dst
	for i := 0; i < len(words); {
		// Longest back-reference within the window.
		bestLen, bestDist := 0, 0
		lo := i - maxDistance
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < i; j++ {
			l := 0
			for i+l < len(words) && l < maxLength && words[j+l] == words[i+l] {
				l++
			}
			if l > bestLen {
				bestLen, bestDist = l, i-j
			}
		}
		if bestLen >= minLength {
			out = append(out, token{kind: kindMatch, dist: bestDist, len: bestLen})
			i += bestLen
			continue
		}
		if idx, ok := c.dictIdx[words[i]]; ok {
			out = append(out, token{kind: kindDict, dictIdx: idx})
		} else {
			out = append(out, token{kind: kindRaw, raw: words[i]})
		}
		i++
	}
	out = append(out, token{kind: kindEnd})
	return out
}

// Train builds the dictionary and Huffman codes over all regions' words.
// Concurrent Compress calls share the returned compressor safely, since
// huffman.Build returns codes with their encoders already built.
func Train(regions [][]uint32) *Compressor {
	c := &Compressor{dictIdx: map[uint32]int{}}

	// Pass 1a: global word frequencies for the dictionary.
	wordFreq := map[uint32]uint64{}
	for _, words := range regions {
		for _, w := range words {
			wordFreq[w]++
		}
	}
	type wf struct {
		w uint32
		f uint64
	}
	all := make([]wf, 0, len(wordFreq))
	for w, f := range wordFreq {
		if f >= 2 {
			all = append(all, wf{w, f})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].f != all[j].f {
			return all[i].f > all[j].f
		}
		return all[i].w < all[j].w
	})
	if len(all) > dictSize {
		all = all[:dictSize]
	}
	for i, e := range all {
		c.dict = append(c.dict, e.w)
		c.dictIdx[e.w] = i
	}

	// Pass 1b: token statistics.
	kindF := map[uint32]uint64{}
	dictF := map[uint32]uint64{}
	distF := map[uint32]uint64{}
	lenF := map[uint32]uint64{}
	for _, words := range regions {
		for _, t := range c.tokenize(words) {
			kindF[uint32(t.kind)]++
			switch t.kind {
			case kindDict:
				dictF[uint32(t.dictIdx)]++
			case kindMatch:
				distF[uint32(t.dist)]++
				lenF[uint32(t.len)]++
			}
		}
	}
	c.kindCode = huffman.Build(kindF)
	c.dictCode = huffman.Build(dictF)
	c.distCode = huffman.Build(distF)
	c.lenCode = huffman.Build(lenF)

	// Expected coded bits per instruction word, for sizing the pooled
	// per-region writers. Raw tokens carry 32 extra uncoded bits each; the
	// per-region end tokens are counted against the word total as well.
	var totalBits, totalWords uint64
	for _, pair := range [...]struct {
		f    map[uint32]uint64
		code *huffman.Code
	}{{kindF, c.kindCode}, {dictF, c.dictCode}, {distF, c.distCode}, {lenF, c.lenCode}} {
		for v, n := range pair.f {
			totalBits += n * uint64(pair.code.CodeLen(v))
		}
	}
	totalBits += kindF[kindRaw] * 32
	for _, words := range regions {
		totalWords += uint64(len(words))
	}
	totalWords += uint64(len(regions)) // one end token per region
	if totalWords > 0 {
		c.estBitsPerWord = int((totalBits + totalWords - 1) / totalWords)
	}
	return c
}

// SizeHint estimates the byte capacity a region of nWords instruction words
// needs, from the trained expected bits per word plus slack for the end
// token, padding, and estimate error.
func (c *Compressor) SizeHint(nWords int) int {
	est := c.estBitsPerWord
	if est <= 0 {
		est = 24 // conservative default when untrained
	}
	return (nWords+1)*est/8 + 16
}

// Compress appends the coded region to w. A non-canonical word (see
// isa.Canonical) is refused: the decoder would refuse its raw token.
func (c *Compressor) Compress(w *huffman.BitWriter, seq []uint32) error {
	for _, word := range seq {
		if !isa.Canonical(word) {
			return fmt.Errorf("lzcomp: word %#08x is not a canonical instruction", word)
		}
	}
	sc := encPool.Get().(*encScratch)
	defer encPool.Put(sc)
	toks := c.appendTokens(sc.toks[:0], seq)
	sc.toks = toks // retain grown capacity across recycles
	for _, t := range toks {
		if err := c.kindCode.Encode(w, uint32(t.kind)); err != nil {
			return fmt.Errorf("lzcomp: kind: %w", err)
		}
		switch t.kind {
		case kindDict:
			if err := c.dictCode.Encode(w, uint32(t.dictIdx)); err != nil {
				return fmt.Errorf("lzcomp: dict: %w", err)
			}
		case kindRaw:
			w.WriteBits(uint64(t.raw), 32)
		case kindMatch:
			if err := c.distCode.Encode(w, uint32(t.dist)); err != nil {
				return fmt.Errorf("lzcomp: dist: %w", err)
			}
			if err := c.lenCode.Encode(w, uint32(t.len)); err != nil {
				return fmt.Errorf("lzcomp: len: %w", err)
			}
		}
	}
	return nil
}

// Decompress is DecompressWords for callers that want decoded
// instructions.
func (c *Compressor) Decompress(blob []byte, bitOff int, emit func(isa.Inst) error) (int, error) {
	return c.DecompressWords(blob, bitOff, func(w uint32) error { return emit(isa.Decode(w)) })
}

// DecompressWords decodes one region starting at bit offset bitOff,
// invoking emit per instruction word, and returns the bits consumed. Every
// word it emits is canonical (isa.Canonical): a raw token carrying any
// other word is an error, UnmarshalBinary refuses such dictionary words,
// and a match copies words already emitted.
func (c *Compressor) DecompressWords(blob []byte, bitOff int, emit func(uint32) error) (int, error) {
	r := huffman.GetReader(blob)
	defer huffman.PutReader(r)
	sc := decPool.Get().(*decScratch)
	defer decPool.Put(sc)
	return c.decompress(r, sc, bitOff, emit)
}

// decompress is DecompressWords's body over a caller-supplied reader
// (positioned anywhere in the region's blob) and back-reference window.
func (c *Compressor) decompress(r *huffman.BitReader, sc *decScratch, bitOff int, emit func(uint32) error) (int, error) {
	r.Seek(bitOff)
	// Appending through sc.words (rather than a local captured by a push
	// closure) keeps the window's grown capacity across recycles and the
	// loop allocation-free.
	sc.words = sc.words[:0]
	for {
		kind, err := c.decodeSym(c.kindCode, r)
		if err != nil {
			return r.BitsRead() - bitOff, err
		}
		var w uint32
		switch kind {
		case kindEnd:
			return r.BitsRead() - bitOff, nil
		case kindDict:
			idx, err := c.decodeSym(c.dictCode, r)
			if err != nil {
				return r.BitsRead() - bitOff, err
			}
			if int(idx) >= len(c.dict) {
				return r.BitsRead() - bitOff, fmt.Errorf("lzcomp: dictionary index %d out of range", idx)
			}
			w = c.dict[idx]
		case kindRaw:
			w = uint32(r.ReadBits(32))
			if !isa.Canonical(w) {
				return r.BitsRead() - bitOff, fmt.Errorf("lzcomp: raw word %#08x is not a canonical instruction", w)
			}
		case kindMatch:
			dist, err := c.decodeSym(c.distCode, r)
			if err != nil {
				return r.BitsRead() - bitOff, err
			}
			length, err := c.decodeSym(c.lenCode, r)
			if err != nil {
				return r.BitsRead() - bitOff, err
			}
			if int(dist) <= 0 || int(dist) > len(sc.words) {
				return r.BitsRead() - bitOff, fmt.Errorf("lzcomp: distance %d outside window of %d", dist, len(sc.words))
			}
			start := len(sc.words) - int(dist)
			for k := 0; k < int(length); k++ {
				w := sc.words[start+k]
				sc.words = append(sc.words, w)
				if err := emit(w); err != nil {
					return r.BitsRead() - bitOff, err
				}
			}
			continue
		default:
			return r.BitsRead() - bitOff, fmt.Errorf("lzcomp: unknown token kind %d", kind)
		}
		sc.words = append(sc.words, w)
		if err := emit(w); err != nil {
			return r.BitsRead() - bitOff, err
		}
	}
}

// DecodeStats sums the decode-path counters across the four token codes.
func (c *Compressor) DecodeStats() huffman.DecodeStats {
	var total huffman.DecodeStats
	for _, code := range c.codes() {
		if code != nil {
			code.Stats.AddTo(&total)
		}
	}
	return total
}

// MarshalBinary serializes the dictionary and the four token codes: the
// dictionary length, the dictionary words little-endian, then the codes in
// codes() order framed by huffman.AppendCodes.
func (c *Compressor) MarshalBinary() ([]byte, error) {
	out, err := huffman.AppendLen24(nil, len(c.dict))
	if err != nil {
		return nil, fmt.Errorf("lzcomp: %w", err)
	}
	for _, w := range c.dict {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	codes := c.codes()
	if out, err = huffman.AppendCodes(out, codes[:]...); err != nil {
		return nil, fmt.Errorf("lzcomp: %w", err)
	}
	return out, nil
}

// UnmarshalBinary deserializes tables written by MarshalBinary.
func (c *Compressor) UnmarshalBinary(data []byte) error {
	n, pos, err := huffman.ReadLen24(data, 0, 4)
	if err != nil {
		return fmt.Errorf("lzcomp: dictionary: %w", err)
	}
	c.dict = make([]uint32, n)
	c.dictIdx = make(map[uint32]int, n)
	for i := range c.dict {
		w := binary.LittleEndian.Uint32(data[pos:])
		if !isa.Canonical(w) {
			return fmt.Errorf("lzcomp: dictionary word %#08x is not a canonical instruction", w)
		}
		c.dict[i] = w
		c.dictIdx[w] = i
		pos += 4
	}
	codes, pos, err := huffman.ReadCodes(data, pos, len(c.codes()))
	if err != nil {
		return fmt.Errorf("lzcomp: %w", err)
	}
	c.kindCode, c.dictCode, c.distCode, c.lenCode = codes[0], codes[1], codes[2], codes[3]
	if pos != len(data) {
		return fmt.Errorf("lzcomp: %d trailing bytes", len(data)-pos)
	}
	return nil
}
