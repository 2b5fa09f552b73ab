// Package core implements squash, the paper's profile-guided code
// compressor (Debray & Evans, PLDI 2002): a binary rewriter that replaces
// infrequently executed code regions with entry stubs and a compressed
// representation, decompressed on demand at run time into a small fixed
// buffer, plus the runtime machinery (decompressor dispatch, dynamically
// created reference-counted restore stubs) that makes function calls out of
// the buffer work.
package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/huffman"
	"repro/internal/isa"
	"repro/internal/lzcomp"
	"repro/internal/objfile"
	"repro/internal/streamcomp"
)

// DecompWords is the reserved size of the in-image decompressor, in words.
// The first NumEntryRegs words are the per-register entry points (§2.3: one
// entry point per possible return-address register); the rest stands in for
// the decompressor body and its CreateStub logic. 600 words ≈ 2.4 KB is a
// realistic size for a canonical-Huffman split-stream decoder with the
// paper's decoder loop; it is charged in full against the squashed
// program's footprint.
const DecompWords = 600

// NumEntryRegs is the number of decompressor entry points (one per
// general-purpose register that could hold the return address).
const NumEntryRegs = 32

// StubSlotWords is the size of one dynamically created restore stub:
// the call to the decompressor, the tag word, and the usage count (the
// paper's "additional 8 bytes per stub in order to maintain the count",
// rounded up to a word-aligned slot).
const StubSlotWords = 4

// Region coder identifiers, stored in the metadata so the runtime knows how
// to decode the blob. The zero value is the paper's split-stream coder, so
// images written before the field existed decode unchanged.
const (
	// CoderStream is the paper's split-stream canonical-Huffman coder (§3).
	CoderStream = 0
	// CoderLZ is the LZ-style dictionary coder (§8/[19] alternative).
	CoderLZ = 1
)

// RegionCoder is the one contract both region coders (streamcomp's §3
// split-stream coder and lzcomp's dictionary coder) meet, over 32-bit
// instruction words. The squasher trains one, compresses each region's
// words into its own writer (presized by SizeHint; a trained coder is safe
// for concurrent Compress, which refuses words that are not canonical,
// isa.Canonical) and stores MarshalBinary's tables; core lays the regions
// out into the blob. The runtime decodes one region at a time with
// DecompressWords, whose words are all canonical, and can switch between
// the table-driven and reference bit-at-a-time Huffman decoders, which
// consume identical bits. Decompress is DecompressWords through isa.Decode,
// for callers that want instructions. DecodeStats exposes the coder's
// decode-path telemetry (host-side only, never part of the simulated
// state).
type RegionCoder interface {
	Compress(w *huffman.BitWriter, seq []uint32) error
	SizeHint(nInsts int) int
	MarshalBinary() ([]byte, error)
	DecompressWords(blob []byte, bitOff int, emit func(uint32) error) (int, error)
	Decompress(blob []byte, bitOff int, emit func(isa.Inst) error) (int, error)
	SetSlowDecode(v bool)
	DecodeStats() huffman.DecodeStats
}

// Meta is the squash runtime description stored alongside the image. In
// the paper's artifact this state is the decompressor's private data inside
// the binary; its size is charged to the footprint via the offset table and
// code tables entries of the accounting, not via this encoding.
type Meta struct {
	DecompAddr   uint32 // base of the reserved decompressor region
	StubAreaAddr uint32 // base of the restore-stub area
	StubCapacity int    // number of StubSlotWords slots
	RtBufAddr    uint32 // base of the runtime buffer
	K            int    // runtime buffer size in bytes
	// Interpret selects the §8 alternative runtime: compressed regions are
	// interpreted in place instead of decompressed into the buffer.
	Interpret bool
	// Coder identifies the region coder that produced Blob/Tables
	// (CoderStream or CoderLZ). It shares the Interpret flags word in the
	// serialized form: bit 0 is the interpret flag, bits 8+ the coder, and
	// the reserved bits 1-7 must be zero.
	Coder int

	// OffsetTable maps region index to the bit offset of its compressed
	// code within Blob (the paper's function offset table).
	OffsetTable []uint32
	// Blob is the merged compressed code of all regions.
	Blob []byte
	// Tables is the serialized split-stream compressor (N/D arrays per
	// stream, plus MTF alphabets when enabled).
	Tables []byte
}

// Compressor deserializes the coder tables for whichever region coder the
// image was squashed with.
func (m *Meta) Compressor() (RegionCoder, error) {
	switch m.Coder {
	case CoderStream:
		var c streamcomp.Compressor
		if err := c.UnmarshalBinary(m.Tables); err != nil {
			return nil, fmt.Errorf("core: bad compressor tables: %w", err)
		}
		return &c, nil
	case CoderLZ:
		var c lzcomp.Compressor
		if err := c.UnmarshalBinary(m.Tables); err != nil {
			return nil, fmt.Errorf("core: bad compressor tables: %w", err)
		}
		return &c, nil
	default:
		return nil, fmt.Errorf("core: unknown region coder %d", m.Coder)
	}
}

// MarshalBinary encodes the metadata.
func (m *Meta) MarshalBinary() ([]byte, error) {
	le := binary.LittleEndian
	var out []byte
	u32 := func(v uint32) { var b [4]byte; le.PutUint32(b[:], v); out = append(out, b[:]...) }
	out = append(out, 'S', 'Q', 'M', '1')
	u32(m.DecompAddr)
	u32(m.StubAreaAddr)
	u32(uint32(m.StubCapacity))
	u32(m.RtBufAddr)
	u32(uint32(m.K))
	flags := uint32(m.Coder) << 8
	if m.Interpret {
		flags |= 1
	}
	u32(flags)
	u32(uint32(len(m.OffsetTable)))
	for _, v := range m.OffsetTable {
		u32(v)
	}
	u32(uint32(len(m.Blob)))
	out = append(out, m.Blob...)
	u32(uint32(len(m.Tables)))
	out = append(out, m.Tables...)
	return out, nil
}

// UnmarshalMeta decodes metadata written by MarshalBinary.
func UnmarshalMeta(data []byte) (*Meta, error) {
	if len(data) < 4 || string(data[:4]) != "SQM1" {
		return nil, fmt.Errorf("core: bad metadata magic")
	}
	le := binary.LittleEndian
	pos := 4
	u32 := func() (uint32, error) {
		if pos+4 > len(data) {
			return 0, fmt.Errorf("core: truncated metadata at byte %d", pos)
		}
		v := le.Uint32(data[pos:])
		pos += 4
		return v, nil
	}
	m := &Meta{}
	var err error
	if m.DecompAddr, err = u32(); err != nil {
		return nil, err
	}
	if m.StubAreaAddr, err = u32(); err != nil {
		return nil, err
	}
	cap32, err := u32()
	if err != nil {
		return nil, err
	}
	// The stub area lives in VM memory, and NewRuntime sizes its slot
	// table by the capacity, so a capacity memory cannot hold is corrupt.
	if uint64(cap32)*StubSlotWords*isa.WordSize > uint64(objfile.MemSize) {
		return nil, fmt.Errorf("core: implausible restore-stub capacity %d", cap32)
	}
	m.StubCapacity = int(cap32)
	if m.RtBufAddr, err = u32(); err != nil {
		return nil, err
	}
	k32, err := u32()
	if err != nil {
		return nil, err
	}
	m.K = int(k32)
	flags, err := u32()
	if err != nil {
		return nil, err
	}
	if flags&0xFE != 0 {
		return nil, fmt.Errorf("core: reserved metadata flag bits %#x set", flags&0xFE)
	}
	m.Interpret = flags&1 == 1
	m.Coder = int(flags >> 8)
	n, err := u32()
	if err != nil {
		return nil, err
	}
	if int(n) > (len(data)-pos)/4 {
		return nil, fmt.Errorf("core: implausible offset table size %d", n)
	}
	m.OffsetTable = make([]uint32, n)
	for i := range m.OffsetTable {
		if m.OffsetTable[i], err = u32(); err != nil {
			return nil, err
		}
	}
	bl, err := u32()
	if err != nil {
		return nil, err
	}
	if int(bl) > len(data)-pos {
		return nil, fmt.Errorf("core: truncated blob")
	}
	m.Blob = append([]byte(nil), data[pos:pos+int(bl)]...)
	pos += int(bl)
	tl, err := u32()
	if err != nil {
		return nil, err
	}
	if int(tl) > len(data)-pos {
		return nil, fmt.Errorf("core: truncated tables")
	}
	m.Tables = append([]byte(nil), data[pos:pos+int(tl)]...)
	pos += int(tl)
	if pos != len(data) {
		return nil, fmt.Errorf("core: %d trailing metadata bytes", len(data)-pos)
	}
	return m, nil
}
