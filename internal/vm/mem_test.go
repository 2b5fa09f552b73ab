package vm

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/objfile"
	"repro/internal/race"
	"repro/internal/testprog"
)

// pagesSpanned counts the pages that n bytes starting at a touch.
func pagesSpanned(a uint32, n int) int {
	if n == 0 {
		return 0
	}
	return int((a+uint32(n)-1)>>pageShift-a>>pageShift) + 1
}

// residentPages counts the machine's private pages.
func (m *Machine) residentPages() int {
	n := 0
	for _, p := range m.pages {
		if p != &zeroPage {
			n++
		}
	}
	return n
}

// allocatedBy returns the fewest heap bytes f allocated over three calls;
// the minimum discards whatever other goroutines allocated meanwhile.
func allocatedBy(f func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestZeroPageLoad loads a word and a byte from a page nothing has
// written: both read 0, and the load gives the page no storage.
func TestZeroPageLoad(t *testing.T) {
	im := assembleImage(t, `
        .text
        .func main
        li   t0, 0x200000
        li   a0, 1
        ldw  a0, 0(t0)
        ldb  t1, 7(t0)
        add  a0, t1, a0
        sys  halt
`)
	m, err := runPairDrive(t, "zero-page load", im, nil, func(m *Machine) error {
		before := m.residentPages()
		if err := m.Run(); err != nil {
			return err
		}
		if after := m.residentPages(); after != before {
			return fmt.Errorf("loads gave %d pages storage", after-before)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != 0 {
		t.Fatalf("status %d, want 0 from an unwritten page", m.Status)
	}
	if race.Enabled {
		return
	}
	if n := allocatedBy(func() { New(im, nil).Run() }) - allocatedBy(func() { New(im, nil) }); n != 0 {
		t.Fatalf("a run that only loads from an unwritten page allocated %d bytes", n)
	}
}

// TestStoreByteLastOfPage stores the last byte of a page: the word around
// it reads the byte in its top position, and the page after stays unwritten.
func TestStoreByteLastOfPage(t *testing.T) {
	const last = 3*pageSize - 1
	im := assembleImage(t, fmt.Sprintf(`
        .text
        .func main
        li   t0, %#x
        li   t1, 0xAB
        stb  t1, 0(t0)
        ldw  a0, -3(t0)
        ldb  t2, 1(t0)
        add  a0, t2, a0
        sys  halt
`, last))
	m, err := runPairDrive(t, "stb last byte", im, nil, (*Machine).Run)
	if err != nil {
		t.Fatal(err)
	}
	if want := int32(-0x55000000); m.Status != want { // 0xAB000000
		t.Fatalf("status %#x, want %#x", m.Status, want)
	}
	if m.pages[last>>pageShift] == &zeroPage || m.pages[last>>pageShift+1] != &zeroPage {
		t.Fatal("stb gave storage to the wrong page")
	}
}

// TestImageDataAcrossPages loads more than a page of data: every byte
// reads back, the two data pages get storage and the next one does not.
func TestImageDataAcrossPages(t *testing.T) {
	data := make([]byte, pageSize+4096)
	for i := range data {
		data[i] = byte(i*7 + i>>8)
	}
	m := New(&objfile.Image{Text: []uint32{0}, Data: data, Entry: objfile.TextBase}, nil)
	for i := 0; i < len(data); i += isa.WordSize {
		w, err := m.ReadWord(objfile.DataBase + uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := binary.LittleEndian.Uint32(data[i:]); w != want {
			t.Fatalf("data word at %#x reads %#x, want %#x", objfile.DataBase+uint32(i), w, want)
		}
	}
	if got, want := m.residentPages(), pagesSpanned(objfile.TextBase, 4)+pagesSpanned(objfile.DataBase, len(data)); got != want {
		t.Fatalf("%d resident pages, want %d (text and data)", got, want)
	}
}

// TestWritePredecodedAcrossPages installs a predecoded run that straddles
// a 64 KiB boundary inside text and runs it: both modes execute the
// installed words, and memory holds each of them.
func TestWritePredecodedAcrossPages(t *testing.T) {
	im := &objfile.Image{Text: make([]uint32, 20_000), Entry: objfile.TextBase}
	const at = pageSize - 2*isa.WordSize
	words := []uint32{
		isa.Encode(isa.Mem(isa.OpLDA, isa.RegA0, isa.RegZero, 5)),
		isa.Encode(isa.OpL(isa.OpIntA, isa.RegA0, 1, isa.FnADD, isa.RegA0)),
		isa.Encode(isa.OpL(isa.OpIntA, isa.RegA0, 2, isa.FnADD, isa.RegA0)),
		isa.Encode(isa.Sys(isa.SysHALT)),
	}
	p := Predecode(words)
	m, err := runPairDrive(t, "predecoded across pages", im, nil, func(m *Machine) error {
		if err := m.WritePredecoded(at, p); err != nil {
			return err
		}
		m.PC = at
		return m.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != 8 {
		t.Fatalf("status %d, want 8 from the installed words", m.Status)
	}
	for k, want := range words {
		if got, _ := m.ReadWord(at + uint32(k*isa.WordSize)); got != want {
			t.Fatalf("word %d reads %#x, want %#x", k, got, want)
		}
	}
}

// TestWritePredecodedPastMemSize installs a run that starts two words
// below MemSize: the two words that fit are stored, and the third traps
// with WriteWord's message.
func TestWritePredecodedPastMemSize(t *testing.T) {
	m := New(&objfile.Image{Text: []uint32{0}, Entry: objfile.TextBase}, nil)
	const at = objfile.MemSize - 2*isa.WordSize
	err := m.WritePredecoded(at, Predecode([]uint32{11, 22, 33, 44}))
	if want := fmt.Sprintf("word write out of bounds at %#x", objfile.MemSize); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("got %v, want a trap containing %q", err, want)
	}
	for k, want := range []uint32{11, 22} {
		if got, _ := m.ReadWord(at + uint32(k*isa.WordSize)); got != want {
			t.Fatalf("word %d below MemSize reads %d, want %d", k, got, want)
		}
	}
}

// TestVMNewAllocGate gates the bytes New allocates for a 61 440-word image
// (pgp's squeezed text is 60 011 words): the pages the text lands on, one
// 8-byte decode-cache entry per word and the page table, with 4 KiB slack
// for the rest of the Machine. 61 440 entries fill whole 8 KiB heap pages,
// so the slack is not spent on rounding the cache's allocation up.
func TestVMNewAllocGate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector adds its own allocations")
	}
	const n = 61_440
	im := &objfile.Image{Text: make([]uint32, n), Entry: objfile.TextBase}
	pages := pagesSpanned(objfile.TextBase, n*isa.WordSize)
	ceiling := uint64(pages*pageSize + 8*n + 8*int(numPages) + 4096)
	var sink *Machine
	got := allocatedBy(func() { sink = New(im, nil) })
	runtime.KeepAlive(sink)
	t.Logf("New(%d words): %d bytes, ceiling %d", n, got, ceiling)
	if got > ceiling {
		t.Errorf("New(%d words) allocated %d bytes, ceiling %d (%d text pages + 8 B/word + page table + 4 KiB)", n, got, ceiling, pages)
	}
}

// TestStorePageAllocGate runs a program whose one store reaches a page
// nothing has touched: the run allocates exactly one page.
func TestStorePageAllocGate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector adds its own allocations")
	}
	im := assembleImage(t, `
        .text
        .func main
        li   t0, 0x200000
        stw  t0, 0(t0)
        stb  t0, 9(t0)
        sys  halt
`)
	var m *Machine
	got := allocatedBy(func() {
		m = New(im, nil)
		m.Run()
	}) - allocatedBy(func() { m = New(im, nil) })
	if got != pageSize {
		t.Fatalf("a store to an untouched page allocated %d bytes, want one %d-byte page", got, pageSize)
	}
	m.Run()
	if n := m.residentPages(); n != 2 {
		t.Fatalf("%d resident pages after the run, want 2 (text and the stored page)", n)
	}
}

// FuzzVM runs arbitrary text words, data and input through both
// interpreters (runPairDrive) under a 20 000-instruction limit and requires
// identical machine state, memory included, and an intact zero page. Mode
// bits attach the icache model and profiling.
func FuzzVM(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		im := assembleImage(f, testprog.Random(seed))
		text := make([]byte, 0, len(im.Text)*isa.WordSize)
		for _, w := range im.Text {
			text = binary.LittleEndian.AppendUint32(text, w)
		}
		f.Add(text, im.Data, []byte("fuzz vm input"), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, text, data, input []byte, mode uint8) {
		words := make([]uint32, min(len(text), 4096)/isa.WordSize)
		for k := range words {
			words[k] = binary.LittleEndian.Uint32(text[k*isa.WordSize:])
		}
		im := &objfile.Image{Text: words, Data: data[:min(len(data), 2*pageSize)], Entry: objfile.TextBase}
		runPairDrive(t, "fuzz", im, input[:min(len(input), 256)], func(m *Machine) error {
			m.MaxInstructions = 20_000
			if mode&1 != 0 {
				m.AttachICache(NewICache(1024, 32, 8))
			}
			if mode&2 != 0 {
				m.EnableProfile()
			}
			return m.Run()
		})
	})
}
