package vm

// ICache is an optional direct-mapped instruction-cache model. The paper's
// test machine has a 64 KB two-way instruction cache, and the decompression
// scheme interacts with instruction caching twice: the decompressor must
// flush the cache after filling the runtime buffer (§2.1), and compressed
// programs touch fewer distinct text lines. Enabling the model charges a
// per-miss penalty and counts hits/misses so those effects can be measured;
// it is off by default because the paper's own comparisons are made without
// a cache-sensitivity study.
type ICache struct {
	// LineBytes is the cache line size (must be a power of two ≥ 4).
	LineBytes uint32
	// NumLines is the number of direct-mapped lines (power of two).
	NumLines uint32
	// MissPenalty is charged in cycles per line fill.
	MissPenalty uint64

	tags  []uint32
	valid []bool

	Hits   uint64
	Misses uint64
}

// NewICache builds a model of the given total size.
func NewICache(totalBytes, lineBytes uint32, missPenalty uint64) *ICache {
	lines := totalBytes / lineBytes
	return &ICache{
		LineBytes:   lineBytes,
		NumLines:    lines,
		MissPenalty: missPenalty,
		tags:        make([]uint32, lines),
		valid:       make([]bool, lines),
	}
}

// access records a fetch from pc and returns the cycle charge.
func (c *ICache) access(pc uint32) uint64 {
	lineAddr := pc / c.LineBytes
	idx := lineAddr % c.NumLines
	if c.valid[idx] && c.tags[idx] == lineAddr {
		c.Hits++
		return 0
	}
	c.valid[idx] = true
	c.tags[idx] = lineAddr
	c.Misses++
	return c.MissPenalty
}

// FlushRange invalidates every line overlapping [lo, hi) — the model of the
// instruction-memory barrier the decompressor performs after writing the
// runtime buffer.
func (c *ICache) FlushRange(lo, hi uint32) {
	first := lo / c.LineBytes
	last := hi / c.LineBytes // rounded up below; hi+LineBytes-1 could wrap
	if hi%c.LineBytes != 0 {
		last++
	}
	for la := first; la < last; la++ {
		idx := la % c.NumLines
		if c.valid[idx] && c.tags[idx] == la {
			c.valid[idx] = false
		}
	}
}

// MissRate reports misses over total accesses.
func (c *ICache) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}

// AttachICache enables instruction-cache modelling on the machine.
func (m *Machine) AttachICache(c *ICache) { m.ICache = c }

// icacheAccess is called from the fetch path when a model is attached.
func (m *Machine) icacheAccess(pc uint32) {
	if m.ICache != nil {
		m.Cycles += m.ICache.access(pc)
	}
}

// ICacheFlush lets hooks flush the model when they rewrite code.
func (m *Machine) ICacheFlush(lo, hi uint32) {
	if m.ICache != nil {
		m.ICache.FlushRange(lo, hi)
	}
}
