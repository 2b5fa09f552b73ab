// Package profile implements execution-profile handling and the paper's
// cold-code identification (§5): given a threshold θ, the cold code is the
// largest set of lowest-frequency basic blocks whose combined runtime
// instruction contribution stays within θ of the program's total dynamic
// instruction count.
package profile

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/cfg"
)

// Counts is a per-text-word execution count vector, as produced by the
// simulator's profiler.
type Counts []uint64

// WriteTo serializes the counts ("EMP1" magic, uvarint length, uvarint
// deltas are overkill — counts are written as uvarints directly).
func (c Counts) WriteTo(w io.Writer) (int64, error) {
	buf := append([]byte("EMP1"), binary.AppendUvarint(nil, uint64(len(c)))...)
	for _, v := range c {
		buf = binary.AppendUvarint(buf, v)
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadCounts deserializes a profile written by WriteTo.
func ReadCounts(r io.Reader) (Counts, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < 4 || string(data[:4]) != "EMP1" {
		return nil, fmt.Errorf("profile: bad magic")
	}
	pos := 4
	next := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("profile: truncated at byte %d", pos)
		}
		pos += n
		return v, nil
	}
	length, err := next()
	if err != nil {
		return nil, err
	}
	// Every count occupies at least one uvarint byte, so a plausible length
	// is bounded by the bytes remaining *after* the header — not by the whole
	// input, which let a 4-byte body claim millions of counts and
	// over-allocate the slice (8 bytes per claimed count) before the parse
	// loop ever hit the truncation error.
	if length > uint64(len(data)-pos) {
		return nil, fmt.Errorf("profile: implausible count %d (only %d bytes of data)", length, len(data)-pos)
	}
	out := make(Counts, length)
	for i := range out {
		if out[i], err = next(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ColdSet is the result of cold-code identification.
type ColdSet struct {
	// Cold maps block labels identified as cold (IdentifyCold only).
	Cold map[string]bool
	// MaxFreq is the largest execution frequency N admitted as cold.
	MaxFreq uint64
	// ColdInsts and TotalInsts count static instructions (cold vs all).
	ColdInsts  int
	TotalInsts int
	// ColdWeight and TotalWeight count dynamic instructions.
	ColdWeight  uint64
	TotalWeight uint64
}

// ColdFraction reports the static fraction of code identified as cold.
func (s *ColdSet) ColdFraction() float64 {
	if s.TotalInsts == 0 {
		return 0
	}
	return float64(s.ColdInsts) / float64(s.TotalInsts)
}

// IdentifyCold classifies blocks of a profiled program as cold for a given
// threshold θ ∈ [0, 1], implementing §5 of the paper:
//
//	Consider all basic blocks b in increasing order of execution frequency
//	and determine the largest frequency N such that
//	    Σ_{freq(b) ≤ N} weight(b) ≤ θ · tot_instr_ct.
//	Any block with freq(b) ≤ N is cold.
//
// θ = 0 admits only never-executed code; θ = 1 admits everything. The
// program must have had AttachProfile called on it. IdentifyCold is
// ColdThreshold plus the label-keyed Cold view.
func IdentifyCold(p *cfg.Program, theta float64) *ColdSet {
	s := ColdThreshold(p, theta)
	s.Cold = make(map[string]bool)
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if s.IsCold(b) {
				s.Cold[b.Label] = true
			}
		}
	}
	return s
}

// ColdThreshold is IdentifyCold without the Cold map: it fixes MaxFreq and
// the counts, and IsCold classifies each block.
func ColdThreshold(p *cfg.Program, theta float64) *ColdSet {
	var blocks []*cfg.Block
	for _, f := range p.Funcs {
		blocks = append(blocks, f.Blocks...)
	}
	return threshold(blocks, theta)
}

// ColdBlocks is IdentifyCold over a numbered program: the cold bit of each
// block number.
func ColdBlocks(x *cfg.Index, theta float64) []bool {
	s := threshold(x.Blocks, theta)
	cold := make([]bool, len(x.Blocks))
	for i, b := range x.Blocks {
		cold[i] = s.IsCold(b)
	}
	return cold
}

// IsCold reports whether b is cold: whether its frequency is at most
// MaxFreq.
func (s *ColdSet) IsCold(b *cfg.Block) bool { return b.Freq <= s.MaxFreq }

// threshold computes the §5 cut over blocks: frequency classes are walked
// in ascending order and admitted only in full (all blocks of equal
// frequency in or out together).
func threshold(blocks []*cfg.Block, theta float64) *ColdSet {
	if theta < 0 {
		theta = 0
	}
	if theta > 1 {
		theta = 1
	}
	type class struct{ freq, weight uint64 }
	byFreq := make([]class, len(blocks))
	s := &ColdSet{}
	for i, b := range blocks {
		byFreq[i] = class{b.Freq, b.Weight}
		s.TotalWeight += b.Weight
		s.TotalInsts += len(b.Insts)
	}
	slices.SortFunc(byFreq, func(a, b class) int { return cmp.Compare(a.freq, b.freq) })

	budget := uint64(float64(s.TotalWeight) * theta)
	if theta >= 1 {
		budget = s.TotalWeight
	}
	i := 0
	for i < len(byFreq) {
		j := i
		var classWeight uint64
		for j < len(byFreq) && byFreq[j].freq == byFreq[i].freq {
			classWeight += byFreq[j].weight
			j++
		}
		if s.ColdWeight+classWeight > budget {
			break
		}
		s.ColdWeight += classWeight
		s.MaxFreq = byFreq[i].freq
		i = j
	}
	for _, b := range blocks {
		if s.IsCold(b) {
			s.ColdInsts += len(b.Insts)
		}
	}
	return s
}
