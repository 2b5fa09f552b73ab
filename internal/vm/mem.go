package vm

// Simulated memory. The MemSize address space is a fixed table of 64 KiB
// pages. A page no store has reached points at zeroPage, one shared
// all-zero page that nothing ever writes; the first store to a page gives
// it a private page. New materializes only the pages the image's text and
// data land on, so a machine costs memory in proportion to what its run
// touches, not MemSize.
//
// A page holds its bytes as little-endian words: byte a is bits
// 8*(a%4) to 8*(a%4)+7 of word a/4, so an aligned word access is one array
// element and a byte access is a shift of one.
//
// Loads index the table with no branch: a zero-page load reads zeros,
// exactly what a fresh memory held. Every store path (stw/stb in dispatch
// and exec, WriteWord, WritePredecoded) goes through storePage, whose one
// branch is taken only on a page's first store. Callers bounds-check
// addresses against MemSize first; the helpers here mask the page and word
// indexes, so the compiler drops its own bounds checks.

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/objfile"
)

const (
	pageShift = 16
	pageSize  = 1 << pageShift
	pageWords = pageSize / isa.WordSize
	numPages  = objfile.MemSize >> pageShift
)

type page [pageWords]uint32

// zeroPage backs every page that has never been stored to. It must stay
// all zero: only storePage hands out pages to write, and it never hands
// out this one (ZeroPageIntact checks that).
var zeroPage page

// loadWord reads the aligned word at a < MemSize.
func (m *Machine) loadWord(a uint32) uint32 {
	return m.pages[a>>pageShift%numPages][a/isa.WordSize%pageWords]
}

// loadByte reads the byte at a < MemSize.
func (m *Machine) loadByte(a uint32) byte {
	return byte(m.loadWord(a) >> (a % isa.WordSize * 8))
}

// storePage returns the writable page holding a < MemSize, giving the page
// private storage on its first store.
func (m *Machine) storePage(a uint32) *page {
	p := m.pages[a>>pageShift%numPages]
	if p == &zeroPage {
		p = new(page)
		m.pages[a>>pageShift%numPages] = p
	}
	return p
}

// storeWord writes the aligned word at a < MemSize.
func (m *Machine) storeWord(a, v uint32) {
	m.storePage(a)[a/isa.WordSize%pageWords] = v
}

// storeByte writes the byte at a < MemSize.
func (m *Machine) storeByte(a uint32, v byte) {
	w := &m.storePage(a)[a/isa.WordSize%pageWords]
	s := a % isa.WordSize * 8
	*w = *w&^(0xFF<<s) | uint32(v)<<s
}

// storeWords writes ws to the aligned addresses a, a+4, ...; the run must
// end within MemSize.
func (m *Machine) storeWords(a uint32, ws []uint32) {
	for len(ws) > 0 {
		n := copy(m.storePage(a)[a/isa.WordSize%pageWords:], ws)
		a += uint32(n * isa.WordSize)
		ws = ws[n:]
	}
}

// storeBytes writes b to a, a+1, ... from the aligned address a; the run
// must end within MemSize.
func (m *Machine) storeBytes(a uint32, b []byte) {
	for ; len(b) >= isa.WordSize; a, b = a+isa.WordSize, b[isa.WordSize:] {
		m.storeWord(a, binary.LittleEndian.Uint32(b))
	}
	for i, c := range b {
		m.storeByte(a+uint32(i), c)
	}
}

// ZeroPageIntact reports whether the shared zero page still reads all
// zero. A false result means some store bypassed storePage and wrote into
// the memory of every machine at once; tests and fuzz targets check it.
func ZeroPageIntact() bool {
	return zeroPage == page{}
}

// FirstMemDiff returns the lowest address at which the memories of a and b
// differ, or -1 if they are identical. Pages both machines still share
// with the zero page are skipped without being read.
func FirstMemDiff(a, b *Machine) int {
	for i, pa := range a.pages {
		pb := b.pages[i]
		if pa == pb || *pa == *pb {
			continue
		}
		for k := range pa {
			if d := pa[k] ^ pb[k]; d != 0 {
				return i<<pageShift + k*isa.WordSize + bits.TrailingZeros32(d)/8
			}
		}
	}
	return -1
}
