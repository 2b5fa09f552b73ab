package vm

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/objfile"
)

func TestICacheHitsAndMisses(t *testing.T) {
	src := `
        .text
        .func main
        li   t0, 100
loop:   sub  t0, 1, t0
        bgt  t0, loop
        clr  a0
        sys  halt
`
	obj, _ := asm.Assemble(src)
	im, _ := objfile.Link("main", obj)
	m := New(im, nil)
	c := NewICache(4096, 64, 20)
	m.AttachICache(c)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// The whole program is a handful of lines: one compulsory miss per
	// line, everything else hits.
	if c.Misses > 4 {
		t.Errorf("misses = %d for a tiny loop", c.Misses)
	}
	if c.Hits < 190 {
		t.Errorf("hits = %d, loop body should hit", c.Hits)
	}
	if c.MissRate() > 0.05 {
		t.Errorf("miss rate %.3f", c.MissRate())
	}
}

func TestICacheMissPenaltyCharged(t *testing.T) {
	src := `
        .text
        .func main
        clr  a0
        sys  halt
`
	obj, _ := asm.Assemble(src)
	im, _ := objfile.Link("main", obj)
	run := func(with bool) uint64 {
		m := New(im, nil)
		if with {
			m.AttachICache(NewICache(1024, 64, 50))
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Cycles
	}
	without := run(false)
	with := run(true)
	if with != without+50 {
		t.Errorf("one compulsory miss should cost 50 extra cycles: %d vs %d", with, without)
	}
}

func TestICacheFlushInvalidates(t *testing.T) {
	c := NewICache(1024, 64, 10)
	c.access(0x1000)
	if got := c.access(0x1000); got != 0 {
		t.Fatal("second access should hit")
	}
	c.FlushRange(0x1000, 0x1004)
	if got := c.access(0x1000); got != 10 {
		t.Fatal("flushed line should miss")
	}
	// Flushing a different line leaves this one alone.
	c.access(0x1000)
	c.FlushRange(0x2000, 0x2040)
	if got := c.access(0x1000); got != 0 {
		t.Fatal("unrelated flush evicted the line")
	}
}

func TestICacheConflictMapping(t *testing.T) {
	// Two addresses one cache-size apart conflict in a direct-mapped cache.
	c := NewICache(1024, 64, 10)
	c.access(0x1000)
	c.access(0x1000 + 1024)
	if got := c.access(0x1000); got != 10 {
		t.Fatal("conflicting line did not evict")
	}
}

// TestICacheFlushTopOfAddressSpace is a regression test: rounding hi up to
// a line boundary used to overflow for a range ending near 2^32, so the
// flush silently did nothing.
func TestICacheFlushTopOfAddressSpace(t *testing.T) {
	c := NewICache(1024, 64, 10)
	c.access(0xFFFFFFC0)
	c.FlushRange(0xFFFFFFC0, 0xFFFFFFFF)
	if got := c.access(0xFFFFFFC0); got != 10 {
		t.Fatal("line at the top of the address space survived its flush")
	}
}
