package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"repro/internal/buffersafe"
	"repro/internal/cfg"
	"repro/internal/huffman"
	"repro/internal/isa"
	"repro/internal/lzcomp"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/regions"
	"repro/internal/streamcomp"
)

// Reserved symbol names introduced by the rewriter.
const (
	symDecomp   = "__decomp"
	symStubArea = "__stubarea"
	symRtBuf    = "__rtbuf"
)

// stubPrefix begins an entry stub's label; the compressed block's label
// follows it.
const stubPrefix = "stub$"

// Address slots past the block numbers in encoder.addr: the reserved
// areas, then the compile-time restore stubs in creation order.
const (
	slotDecomp = iota
	slotStubArea
	slotRtBuf
	slotRS0
)

// encoder carries the state of the layout/encode phase of Squash.
type encoder struct {
	conf       Config
	prog       *cfg.Program
	x          *cfg.Index
	res        *regions.Result
	compressed []bool // by block number
	safe       *buffersafe.Result

	// rec/span carry the telemetry context from SquashObs; both may be
	// nil, and every use below is nil-safe.
	rec  *obs.Recorder
	span *obs.Span

	layouts []*regionLayout // indexed by region ID
	// blockOff holds the buffer word offset of every compressed block, by
	// block number; each region's layout fills its own blocks' slots.
	blockOff []int
	rs       []rsStub // compile-time restore stubs (ablation mode)

	// stubs holds the label of each entry stub, and stubOf, by block
	// number, 1 + the index in stubs of the block's stub, or 0: each label
	// is made once, when the entries are known.
	stubs  []string
	stubOf []int32
	// addr holds output addresses by slot: the block number of a surviving
	// block or of the compressed block an entry stub stands for, or
	// len(x.Blocks) plus a slot constant. The slot of a compressed block
	// without an entry stub stays 0.
	addr []uint32
}

// regionLayout fixes where every region instruction lands in the runtime
// buffer (word offsets; offset 0 is the dispatch jump the decompressor
// writes). An instruction's offset is its block's plus its index plus the
// expanded calls before it in the block, each of which takes two words;
// buildSeq walks the blocks the same way.
type regionLayout struct {
	blockOff []int    // buffer word offset of each block, in layout order
	inserted [][2]int // (block index, buffer offset) of knit branches
	words    int
	order    []int32 // block numbers in layout order (consistency check)
	// boundaries counts the offsets the interpret-in-place runtime can be
	// entered at (block starts and post-call resume points); its index
	// charges four bytes per boundary.
	boundaries int
}

type rsStub struct {
	label  string
	region int
	resume int      // buffer word offset to return to
	call   cfg.Inst // the call site's instruction
	isJSR  bool
}

// slot returns the slot of addr for a reserved area or restore stub.
func (e *encoder) slot(k int) int32 { return int32(len(e.x.Blocks) + k) }

type callInfo struct {
	site   cfg.CallSite
	callee int32 // the callee's block number, or cfg.NoBlock
	// expand: the call needs the CreateStub treatment at runtime. Every
	// call out of the runtime buffer expands unless the callee is proven
	// buffer-safe (§6.1): even a callee in the same region may branch to
	// another region mid-body (split functions), which overwrites the
	// buffer, so a raw buffer return address is never sound.
	expand bool
	// intra: the callee's entry lies in the same region, so the expanded
	// call's transfer branch targets a buffer offset rather than an entry
	// stub (no re-decompression on entry).
	intra bool
}

// classifyCall classifies call site k of block i in region r.
func (e *encoder) classifyCall(r *regions.Region, i int32, k int) callInfo {
	callee := e.x.Callees(i)[k]
	info := callInfo{site: e.x.Calls(i)[k], callee: callee}
	switch {
	case info.site.Callee == "":
		// Excluded from regions by partitioning; cannot happen.
		panic(fmt.Sprintf("core: unresolved indirect call in region block %s", e.x.Blocks[i].Label))
	case callee != cfg.NoBlock && e.safe.IsSafe(e.x.Fn[callee]):
		// Left unchanged (§6.1). Safe callees are never compressed.
	default:
		info.expand = true
		if callee != cfg.NoBlock && e.res.RegionOf[callee] == int32(r.ID) && !info.site.Indirect {
			info.intra = true
		}
	}
	return info
}

// layoutRegion computes buffer offsets for region r.
func (e *encoder) layoutRegion(r *regions.Region) *regionLayout {
	lay := &regionLayout{
		blockOff: make([]int, len(r.Blocks)),
		order:    append([]int32(nil), r.Members...),
	}
	pos := 1
	for bi, b := range r.Blocks {
		i := r.Members[bi]
		lay.blockOff[bi] = pos
		e.blockOff[i] = pos
		lay.boundaries++
		pos += len(b.Insts)
		if !e.conf.CompileTimeRestoreStubs {
			for k := range e.x.Calls(i) {
				if e.classifyCall(r, i, k).expand {
					pos++            // an expanded call takes two buffer words
					lay.boundaries++ // resume point after the call
				}
			}
		}
		next := cfg.NoBlock
		if bi+1 < len(r.Blocks) {
			next = r.Members[bi+1]
		}
		if f := e.x.FallsTo[i]; f != cfg.NoBlock && f != next {
			lay.inserted = append(lay.inserted, [2]int{bi, pos})
			pos++
		}
	}
	lay.words = pos
	return lay
}

// retarget returns the label block i is reached by after the rewrite: a
// compressed entry is reachable only through its entry stub. A compressed
// block that is no entry keeps its label, which the output does not
// define, so a surviving reference to it fails to link.
func (e *encoder) retarget(i int32) string {
	if s := e.stubOf[i]; s > 0 {
		return e.stubs[s-1]
	}
	return e.x.Blocks[i].Label
}

// intraOff reports the buffer offset of block i when it lies in region r.
func (e *encoder) intraOff(r *regions.Region, i int32) (int, bool) {
	if i >= 0 && e.res.RegionOf[i] == int32(r.ID) {
		return e.blockOff[i], true
	}
	return 0, false
}

// layout computes every region's buffer layout. Regions are mutually
// independent here, so the layouts fan out; each writes only its own slot,
// indexed by region ID, and its own blocks' offsets, so the merged result is
// order-free.
func (e *encoder) layout() error {
	e.layouts = make([]*regionLayout, len(e.res.Regions))
	e.blockOff = make([]int, len(e.x.Blocks))
	return parallel.ForEach(len(e.res.Regions), e.conf.Workers, func(i int) error {
		r := e.res.Regions[i]
		lay := e.layoutRegion(r)
		if lay.words > e.conf.Regions.K/isa.WordSize {
			return fmt.Errorf("region %d lays out to %d words, buffer holds %d",
				r.ID, lay.words, e.conf.Regions.K/isa.WordSize)
		}
		e.layouts[r.ID] = lay
		return nil
	})
}

// run executes the layout, transform, encode, and accounting phases.
func (e *encoder) run(stats *Stats) (*Output, error) {
	// Phase 1: region layouts (address-independent).
	sp := e.span.Child("layout")
	if err := e.layout(); err != nil {
		return nil, err
	}
	sp.End()

	// Phase 2: lay out and write the output image.
	sp = e.span.Child("build.link")
	im, words, err := e.writeImage()
	if err != nil {
		return nil, err
	}
	sp.End()

	// Phase 3: build final instruction sequences per region and compress.
	// Sequence building reads only the fixed layouts and symbol table, so
	// regions fan out again; the split-stream coder then counts stream
	// frequencies in parallel, builds each canonical-Huffman codebook once
	// (shared read-only by every encoder), and compresses the regions
	// concurrently into private bit streams concatenated in region order.
	sp = e.span.Child("seq.build")
	// Region sequence lengths are exact functions of the fixed layouts, so
	// the sequences build into disjoint subslices of one pooled arena
	// (scratch.go); the parallel appends below never reallocate.
	scratch := getEncodeScratch()
	defer putEncodeScratch(scratch)
	seqs := scratch.partition(scratch.seqCounts(e))
	if err := parallel.ForEach(len(e.res.Regions), e.conf.Workers, func(i int) error {
		r := e.res.Regions[i]
		seq, err := e.buildSeq(r, seqs[r.ID])
		if err != nil {
			return err
		}
		seqs[r.ID] = seq
		return nil
	}); err != nil {
		return nil, err
	}
	sp.End()
	sp = e.span.Child("coder.train")
	var comp RegionCoder
	switch e.conf.Coder {
	case CoderStream:
		comp = streamcomp.Train(seqs, streamcomp.Options{MTF: e.conf.MTF, Workers: e.conf.Workers})
	case CoderLZ:
		comp = lzcomp.Train(seqs)
	default:
		return nil, fmt.Errorf("unknown region coder %d", e.conf.Coder)
	}
	sp.End()
	sp = e.span.Child("region.encode", "regions", len(seqs))
	blob, offsets, err := encodeRegions(comp, seqs, e.conf.Workers, sp)
	if err != nil {
		return nil, err
	}
	tables, err := comp.MarshalBinary()
	if err != nil {
		return nil, err
	}
	sp.SetArg("blob_bytes", len(blob))
	sp.SetArg("table_bytes", len(tables))
	sp.End()

	// Phase 4: materialize the blob in text and the offset table + code
	// tables in data; build metadata and the footprint.
	sp = e.span.Child("image.finalize")
	preBlobWords := len(im.Text)
	for i := 0; i < len(blob); i += 4 {
		var wrd uint32
		for k := 0; k < 4 && i+k < len(blob); k++ {
			wrd |= uint32(blob[i+k]) << (8 * k)
		}
		im.Text = append(im.Text, wrd)
	}
	offtabBytes := 4 * len(offsets)
	for _, off := range offsets {
		im.Data = append(im.Data, byte(off), byte(off>>8), byte(off>>16), byte(off>>24))
	}
	im.Data = append(im.Data, tables...)

	meta := &Meta{
		DecompAddr:   e.addr[e.slot(slotDecomp)],
		StubAreaAddr: e.addr[e.slot(slotStubArea)],
		StubCapacity: e.conf.StubCapacity,
		RtBufAddr:    e.addr[e.slot(slotRtBuf)],
		K:            e.conf.Regions.K,
		Interpret:    e.conf.Interpret,
		Coder:        e.conf.Coder,
		OffsetTable:  offsets,
		Blob:         blob,
		Tables:       tables,
	}
	if e.conf.CompileTimeRestoreStubs {
		meta.StubCapacity = 0
	}
	im.Meta, err = meta.MarshalBinary()
	if err != nil {
		return nil, err
	}

	rtbufWords := e.conf.Regions.K / isa.WordSize
	blobWords := len(im.Text) - preBlobWords
	foot := Footprint{
		NeverCompressed:    (preBlobWords - words.entryStubs - words.restoreStubs - DecompWords - words.stubArea - rtbufWords) * isa.WordSize,
		EntryStubs:         words.entryStubs * isa.WordSize,
		RestoreStubsStatic: words.restoreStubs * isa.WordSize,
		Decompressor:       DecompWords * isa.WordSize,
		OffsetTable:        offtabBytes,
		CompressedCode:     blobWords * isa.WordSize,
		CodeTables:         len(tables),
		StubArea:           words.stubArea * isa.WordSize,
		RuntimeBuffer:      e.conf.Regions.K,
	}
	layoutBytes := len(im.Text)*isa.WordSize + offtabBytes + len(tables)
	if e.conf.Interpret {
		// Interpret-in-place (§8 alternative): no runtime buffer memory is
		// ever written — its address range is reserved but needs no backing
		// store — but the interpreter needs an index entry (four bytes:
		// buffer offset plus blob bit position) for every offset it can be
		// entered at: block starts and post-call resume points.
		foot.RuntimeBuffer = 0
		boundaries := 0
		for _, lay := range e.layouts {
			boundaries += lay.boundaries
		}
		foot.InterpIndex = 4 * boundaries
		layoutBytes += foot.InterpIndex - e.conf.Regions.K
	}
	if got := foot.Total(); got != layoutBytes {
		return nil, fmt.Errorf("footprint accounting mismatch: components sum to %d, layout is %d", got, layoutBytes)
	}

	stats.SquashedBytes = foot.Total()
	stats.EntryStubCount = words.entryStubs / regions.EntryStubWords
	stats.StaticRestoreStubCount = len(e.rs)
	if n := e.res.CompressibleInsts; n > 0 {
		stats.CompressionRatio = float64(len(blob)+len(tables)) / float64(n*isa.WordSize)
	}

	layouts := make([][]int, len(e.layouts))
	for i, lay := range e.layouts {
		layouts[i] = lay.blockOff
	}
	sp.End()
	e.publishMetrics(comp, seqs, blob, tables)
	return &Output{Image: im, Meta: meta, Foot: foot, Stats: *stats, RegionLayouts: layouts}, nil
}

// encodeRegions compresses every region with comp and lays the parts out
// into one blob in region order, exactly as sequential Compress calls into
// one writer would; offsets[i] is the bit at which region i starts (the
// paper's function offset table). Regions encode concurrently into pooled
// private writers, because a region's bits do not depend on where it lands
// in the blob, so the blob is byte-identical at any worker count. Each
// region gets its own span forked from sp, on its own track.
func encodeRegions(comp RegionCoder, seqs [][]uint32, workers int, sp *obs.Span) (blob []byte, offsets []uint32, err error) {
	parts, err := parallel.Map(len(seqs), workers, func(i int) (*huffman.BitWriter, error) {
		rsp := sp.Fork("region.encode", "region", i, "insts", len(seqs[i]))
		w := huffman.GetWriter(comp.SizeHint(len(seqs[i])))
		if err := comp.Compress(w, seqs[i]); err != nil {
			rsp.End()
			huffman.PutWriter(w)
			return nil, fmt.Errorf("region %d: %w", i, err)
		}
		rsp.SetArg("bits", w.Len())
		rsp.End()
		return w, nil
	})
	if err != nil {
		return nil, nil, err
	}
	var out huffman.BitWriter
	total := 0
	for _, part := range parts {
		total += (part.Len() + 7) / 8
	}
	out.Grow(total + 1)
	offsets = make([]uint32, len(seqs))
	for i, part := range parts {
		offsets[i] = uint32(out.Len())
		out.Append(part)
		parts[i] = nil
		huffman.PutWriter(part) // copied into out, and Bytes was never called on it, so its buffer recycles
	}
	return out.Bytes(), offsets, nil
}

// publishMetrics records the per-stream compression breakdown — the
// numbers behind the paper's Table 3 — into the recorder's registry.
// The per-stream bit accounting re-walks every sequence, so the whole
// body is gated on telemetry being enabled.
func (e *encoder) publishMetrics(comp RegionCoder, seqs [][]uint32, blob, tables []byte) {
	if e.rec == nil || e.rec.Metrics == nil {
		return
	}
	e.rec.Counter("squash_blob_bytes_total").Add(uint64(len(blob)))
	e.rec.Counter("squash_table_bytes_total").Add(uint64(len(tables)))
	sc, ok := comp.(*streamcomp.Compressor)
	if !ok {
		return
	}
	bits := sc.StreamBits(seqs)
	for _, st := range sc.StreamStats() {
		stream := obs.L("stream", st.Kind.String())
		e.rec.Counter("squash_stream_bits_total", stream).Add(bits[st.Kind])
		e.rec.Gauge("squash_stream_codebook_values", stream).Set(int64(st.Values))
		e.rec.Gauge("squash_stream_table_bytes", stream).Set(int64(st.TableBytes))
	}
}

// outputWords are the word sizes of the output's stub groups, for the
// footprint.
type outputWords struct{ entryStubs, restoreStubs, stubArea int }

// findEntries finds every region's entries, sorts each region's by label,
// and names their entry stubs: each label is made once, here, so every
// reference is retargeted by block number. In compile-time-restore-stub
// mode, static stubs call compressed callees by symbol, so every such
// callee needs an entry stub even if all its callers share its region.
func (e *encoder) findEntries() [][]int32 {
	extraEntries := map[int][]int32{}
	if e.conf.CompileTimeRestoreStubs {
		for _, r := range e.res.Regions {
			for _, i := range r.Members {
				for k := range e.x.Calls(i) {
					info := e.classifyCall(r, i, k)
					callee := info.callee
					if info.expand && !info.site.Indirect && callee != cfg.NoBlock && e.compressed[callee] {
						id := int(e.res.RegionOf[callee])
						if !slices.Contains(extraEntries[id], callee) {
							extraEntries[id] = append(extraEntries[id], callee)
						}
					}
				}
			}
		}
	}
	entries := make([][]int32, len(e.res.Regions))
	e.stubOf = make([]int32, len(e.x.Blocks))
	for _, r := range e.res.Regions {
		ents := e.res.Entries(e.x, r)
		for _, extra := range extraEntries[r.ID] {
			if !slices.Contains(ents, extra) {
				ents = append(ents, extra)
			}
		}
		slices.SortFunc(ents, func(a, b int32) int {
			return strings.Compare(e.x.Blocks[a].Label, e.x.Blocks[b].Label)
		})
		for _, entry := range ents {
			e.stubs = append(e.stubs, stubPrefix+e.x.Blocks[entry].Label)
			e.stubOf[entry] = int32(len(e.stubs))
		}
		entries[r.ID] = ents
	}
	return entries
}

// restoreStubs lists the compile-time restore stubs (ablation) in e.rs:
// one per expanded call site, in region, block and call order. No call
// expands in the buffer in this mode, so instruction j of a block sits at
// the block's buffer offset plus j.
func (e *encoder) restoreStubs() {
	if !e.conf.CompileTimeRestoreStubs {
		return
	}
	for _, r := range e.res.Regions {
		for bi, b := range r.Blocks {
			i := r.Members[bi]
			for k := range e.x.Calls(i) {
				info := e.classifyCall(r, i, k)
				if !info.expand {
					continue
				}
				j := info.site.InstIdx
				e.rs = append(e.rs, rsStub{
					label:  fmt.Sprintf("rs$%d", len(e.rs)),
					region: r.ID,
					resume: e.blockOff[i] + j + 1,
					call:   b.Insts[j],
					isJSR:  info.site.Indirect,
				})
			}
		}
	}
}

// stubAreaWords is the size of the runtime's restore-stub area, which
// compile-time restore stubs replace.
func (e *encoder) stubAreaWords() int {
	if e.conf.CompileTimeRestoreStubs {
		return 0
	}
	return e.conf.StubCapacity * StubSlotWords
}

// checkNames rejects a name the output would define twice. A data symbol
// must be the only symbol of its name, even when the block of that name is
// compressed, so that every name resolves the same way in the input and
// the output. A name the rewriter makes (an entry or restore stub's, or a
// reserved area's) must not be defined by a surviving block or a data
// symbol.
func (e *encoder) checkNames() error {
	for k, s := range e.prog.DataSymbols {
		if e.x.DataSym(s.Name) != int32(k) {
			return fmt.Errorf("symbol %q defined twice", s.Name)
		}
	}
	taken := func(name string) error {
		if b := e.x.Num(name); (b != cfg.NoBlock && !e.compressed[b]) || e.x.DataSym(name) >= 0 {
			return fmt.Errorf("symbol %q defined twice: the input defines a name the rewriter makes", name)
		}
		return nil
	}
	for _, name := range e.stubs {
		if err := taken(name); err != nil {
			return err
		}
	}
	for _, s := range e.rs {
		if err := taken(s.label); err != nil {
			return err
		}
	}
	for _, name := range [...]string{symDecomp, symStubArea, symRtBuf} {
		if err := taken(name); err != nil {
			return err
		}
	}
	return nil
}

// knits reports whether the kept block i, followed in its function by the
// kept block next (or cfg.NoBlock), needs a br to its fallthrough.
func (e *encoder) knits(i, next int32) bool {
	return i != cfg.NoBlock && e.x.FallsTo[i] != cfg.NoBlock && e.x.FallsTo[i] != next
}

// relocOf is the relocation a symbolic reference kind patches with.
var relocOf = [...]objfile.RelocKind{
	cfg.TargetBranch: objfile.RelBrDisp21,
	cfg.TargetHi16:   objfile.RelHi16,
	cfg.TargetLo16:   objfile.RelLo16,
}

// writeImage lays out the output image and writes it. The text is the
// surviving blocks in function and block order, each followed by a knit br
// where its fallthrough is not the next kept block of its function, then
// the entry stubs region by region, the compile-time restore stubs, and the
// reserved areas, filled with trapping sentinels: the decompressor (entered
// only through the interception hook), the restore-stub area (rewritten at
// run time), and the runtime buffer. Every address is a prefix sum over
// that order, stored in e.addr by slot before any word is written, so each
// reference resolves by block number.
//
// The image is the one objfile.Link makes of cfg.Lower of the same output
// program: the symbols are the data symbols, then one per output block in
// text order (SymFunc for a function's first kept block and for each stub
// and area, SymLabel for the rest); the relocations are the data
// relocations, then the text relocations in text order. Where Link would
// fail, so does writeImage: a name defined twice, a reference left
// pointing at a compressed block that has no entry stub, and a branch
// displacement out of range.
func (e *encoder) writeImage() (*objfile.Image, outputWords, error) {
	x, p := e.x, e.prog
	entries := e.findEntries()
	e.restoreStubs()
	if err := e.checkNames(); err != nil {
		return nil, outputWords{}, err
	}
	words := outputWords{stubArea: e.stubAreaWords()}
	reserved := [...]struct {
		name  string
		words int
		slot  int
	}{
		{symDecomp, DecompWords, slotDecomp},
		{symStubArea, words.stubArea, slotStubArea},
		{symRtBuf, e.conf.Regions.K / isa.WordSize, slotRtBuf},
	}

	// The layout: addresses, and the sizes of the text and the tables.
	e.addr = make([]uint32, int(e.slot(slotRS0))+len(e.rs))
	n, nsym, nrel := 0, len(p.DataSymbols), len(p.DataRelocs)
	place := func(slot int32, size int) {
		e.addr[slot] = objfile.TextBase + uint32(n*isa.WordSize)
		n += size
		nsym++
	}
	for fi := range p.Funcs {
		prev := cfg.NoBlock
		for i := x.FuncStart[fi]; i < x.FuncStart[fi+1]; i++ {
			if e.compressed[i] {
				continue
			}
			if e.knits(prev, i) {
				n, nrel = n+1, nrel+1
			}
			place(i, len(x.Blocks[i].Insts))
			for _, in := range x.Blocks[i].Insts {
				switch in.Kind() {
				case cfg.TargetBranch, cfg.TargetHi16, cfg.TargetLo16:
					nrel++
				}
			}
			prev = i
		}
		if e.knits(prev, cfg.NoBlock) {
			n, nrel = n+1, nrel+1
		}
	}
	for _, r := range e.res.Regions {
		for _, entry := range entries[r.ID] {
			place(entry, regions.EntryStubWords)
			nrel++
		}
	}
	for k, s := range e.rs {
		place(e.slot(slotRS0+k), 3)
		if nrel++; !s.isJSR {
			nrel++
		}
	}
	for _, a := range reserved {
		place(e.slot(a.slot), a.words)
	}

	im := &objfile.Image{
		Text:    make([]uint32, 0, n),
		Data:    append([]byte(nil), p.Data...),
		Symbols: append(make([]objfile.Symbol, 0, nsym), p.DataSymbols...),
		Relocs:  make([]objfile.Reloc, len(p.DataRelocs), nrel),
	}
	for k, r := range p.DataRelocs {
		sym, a, err := e.resolve(x.RelocTo[k], x.DataSym(r.Sym), r.Sym)
		switch {
		case err != nil:
		case r.Section != objfile.SecData || r.Kind != objfile.RelWord32:
			err = fmt.Errorf("%v relocation in the data relocations", r.Kind)
		case int(r.Offset)+4 > len(im.Data):
			err = fmt.Errorf("past end of section")
		}
		if err != nil {
			return nil, words, fmt.Errorf("data relocation at %#x: %w", r.Offset, err)
		}
		binary.LittleEndian.PutUint32(im.Data[r.Offset:], uint32(int64(a)+int64(r.Addend)))
		r.Sym = sym
		im.Relocs[k] = r
	}

	w := imageWriter{im}
	knit := func(i int32) error {
		t := x.FallsTo[i]
		a, err := e.blockAddr(t)
		if err == nil {
			err = w.reloc(isa.OpBR<<26|isa.RegZero<<21, objfile.RelBrDisp21, e.retarget(t), a, 0)
		}
		if err != nil {
			return fmt.Errorf("knit branch after block %s: %w", x.Blocks[i].Label, err)
		}
		return nil
	}
	for fi := range p.Funcs {
		prev, kind := cfg.NoBlock, objfile.SymFunc
		for i := x.FuncStart[fi]; i < x.FuncStart[fi+1]; i++ {
			if e.compressed[i] {
				continue
			}
			if e.knits(prev, i) {
				if err := knit(prev); err != nil {
					return nil, words, err
				}
			}
			b := x.Blocks[i]
			w.symbol(b.Label, kind)
			kind = objfile.SymLabel
			for _, in := range b.Insts {
				switch k := in.Kind(); k {
				case cfg.TargetBranch, cfg.TargetHi16, cfg.TargetLo16:
					ref := p.RefOf(in)
					sym, a, err := e.resolve(x.Target(in), x.DataTarget(in), ref.Sym)
					if err == nil {
						err = w.reloc(in.Word, relocOf[k], sym, a, ref.Addend)
					}
					if err != nil {
						return nil, words, fmt.Errorf("block %s: %w", b.Label, err)
					}
				default:
					w.word(in.Word)
				}
			}
			prev = i
		}
		if e.knits(prev, cfg.NoBlock) {
			if err := knit(prev); err != nil {
				return nil, words, err
			}
		}
	}

	// Entry stubs: two words each — a call to the decompressor through the
	// AT entry point, then the tag word <region index, buffer offset>.
	decomp := e.addr[e.slot(slotDecomp)]
	for _, r := range e.res.Regions {
		for _, entry := range entries[r.ID] {
			off := e.blockOff[entry]
			if off >= 1<<16 || r.ID >= 1<<16 {
				return nil, words, fmt.Errorf("tag overflow: region %d offset %d", r.ID, off)
			}
			w.symbol(e.retarget(entry), objfile.SymFunc)
			if err := w.reloc(isa.Encode(isa.Br(isa.OpBSR, isa.RegAT, 0)), objfile.RelBrDisp21,
				symDecomp, decomp, int32(isa.RegAT*isa.WordSize)); err != nil {
				return nil, words, err
			}
			w.word(uint32(r.ID)<<16 | uint32(off))
			words.entryStubs += regions.EntryStubWords
		}
	}

	// Compile-time restore stubs: three words each — the call, the
	// decompressor invocation, and the tag.
	for _, s := range e.rs {
		w.symbol(s.label, objfile.SymFunc)
		ra := s.call.RA()
		bsr := isa.Encode(isa.Br(isa.OpBSR, ra, 0))
		if s.isJSR {
			w.word(s.call.Word)
		} else {
			sym, a, err := e.resolve(x.Target(s.call), x.DataTarget(s.call), p.Target(s.call))
			if err == nil {
				err = w.reloc(bsr, objfile.RelBrDisp21, sym, a, 0)
			}
			if err != nil {
				return nil, words, fmt.Errorf("restore stub %s: %w", s.label, err)
			}
		}
		if err := w.reloc(bsr, objfile.RelBrDisp21, symDecomp, decomp, int32(ra*isa.WordSize)); err != nil {
			return nil, words, err
		}
		w.word(uint32(s.region)<<16 | uint32(s.resume))
		words.restoreStubs += 3
	}

	for _, a := range reserved {
		w.symbol(a.name, objfile.SymFunc)
		for k := 0; k < a.words; k++ {
			w.word(isa.Sentinel)
		}
	}
	if len(im.Text) != n || len(im.Symbols) != nsym || len(im.Relocs) != nrel {
		return nil, words, fmt.Errorf("wrote %d words, %d symbols and %d relocations, laid out %d, %d and %d",
			len(im.Text), len(im.Symbols), len(im.Relocs), n, nsym, nrel)
	}

	if x.Entry == cfg.NoBlock {
		return nil, words, fmt.Errorf("entry symbol %q not defined", p.Entry)
	}
	var err error
	if im.Entry, err = e.blockAddr(x.Entry); err != nil {
		return nil, words, fmt.Errorf("entry: %w", err)
	}
	return im, words, nil
}

// resolve returns the name and the output address of a reference that the
// index resolved to block t or data symbol d, or neither, by the name sym:
// a compressed block is reached through its entry stub.
func (e *encoder) resolve(t, d int32, sym string) (string, uint32, error) {
	switch {
	case t != cfg.NoBlock:
		a, err := e.blockAddr(t)
		return e.retarget(t), a, err
	case d >= 0:
		return sym, e.prog.DataSymbols[d].Addr(), nil
	}
	return sym, 0, fmt.Errorf("undefined symbol %q", sym)
}

// imageWriter appends text words with their symbols and relocations to an
// image.
type imageWriter struct{ im *objfile.Image }

// symbol defines a text symbol at the next word.
func (w imageWriter) symbol(name string, kind objfile.SymKind) {
	w.im.Symbols = append(w.im.Symbols, objfile.Symbol{
		Name: name, Section: objfile.SecText, Offset: uint32(len(w.im.Text) * isa.WordSize), Kind: kind,
	})
}

// word appends a word that is not relocated.
func (w imageWriter) word(v uint32) { w.im.Text = append(w.im.Text, v) }

// reloc appends word wd, its kind's field patched to reach address a (that
// of sym) plus addend as objfile.Link patches it, and records the
// relocation.
func (w imageWriter) reloc(wd uint32, kind objfile.RelocKind, sym string, a uint32, addend int32) error {
	off := uint32(len(w.im.Text) * isa.WordSize)
	v := int64(a) + int64(addend)
	switch kind {
	case objfile.RelBrDisp21:
		d := v - int64(objfile.TextBase+off) - isa.WordSize
		if d%isa.WordSize != 0 {
			return fmt.Errorf("branch target %#x of %q misaligned", v, sym)
		}
		if d /= isa.WordSize; d < -(1<<20) || d >= 1<<20 {
			return fmt.Errorf("branch displacement %d to %q out of range", d, sym)
		}
		wd = wd&^0x1FFFFF | uint32(d)&0x1FFFFF
	case objfile.RelHi16:
		wd = wd&^0xFFFF | uint32((v-int64(int16(v)))>>16)&0xFFFF
	case objfile.RelLo16:
		wd = wd&^0xFFFF | uint32(uint16(v))
	}
	w.im.Relocs = append(w.im.Relocs, objfile.Reloc{Section: objfile.SecText, Offset: off, Kind: kind, Sym: sym, Addend: addend})
	w.word(wd)
	return nil
}

// buildSeq produces the final instruction word sequence for region r: all
// displacement fields resolved against the fixed buffer layout and the
// output addresses in e.addr, calls rewritten per their
// classification (intra-region, buffer-safe, expanded, or routed through a
// compile-time restore stub). The sequence appends into dst, which the
// caller sizes to the exact length implied by the layout (see scratch.go);
// an undersized dst still produces a correct sequence, it just reallocates.
func (e *encoder) buildSeq(r *regions.Region, dst []uint32) ([]uint32, error) {
	lay := e.layouts[r.ID]
	bufWordBase := int(e.addr[e.slot(slotRtBuf)]) / isa.WordSize
	// wordAddr: the text word of block t's post-rewrite equivalent.
	wordAddr := func(t int32) (int, error) {
		a, err := e.blockAddr(t)
		if err != nil {
			return 0, fmt.Errorf("region %d: %w", r.ID, err)
		}
		return int(a) / isa.WordSize, nil
	}
	// extDisp: displacement from buffer position pos (skip words into the
	// instruction group) to an absolute text word.
	extDisp := func(targetWord, pos, skip int) int32 {
		return int32(targetWord - (bufWordBase + pos + skip))
	}

	seq := dst[:0]
	var insIdx int
	for bi, b := range r.Blocks {
		i := r.Members[bi]
		if lay.order[bi] != i {
			return nil, fmt.Errorf("region %d block order changed since layout: index %d is %s, was %s",
				r.ID, bi, b.Label, e.x.Blocks[lay.order[bi]].Label)
		}
		calls := e.x.Calls(i)
		k := 0 // next call site
		pos := lay.blockOff[bi]
		for j, in := range b.Insts {
			if in.Raw() {
				return nil, fmt.Errorf("raw word inside region block %s", b.Label)
			}
			var info callInfo
			isCall := k < len(calls) && calls[k].InstIdx == j
			if isCall {
				info = e.classifyCall(r, i, k)
				k++
			}
			width := 1
			if isCall && info.expand && !e.conf.CompileTimeRestoreStubs {
				width = 2
			}
			// Words are copied; a resolved reference patches only the
			// displacement or immediate bits, as the linker would.
			w := in.Word
			var disp int32 // the branch displacement, when w is a branch
			branch := false
			switch {
			case isCall && !info.site.Indirect: // direct bsr
				callee := info.callee
				op, ra := isa.OpBSR, in.RA()
				switch {
				case info.expand && info.intra && !e.conf.CompileTimeRestoreStubs:
					// Expanded call whose transfer branches within the
					// buffer: bsr CreateStub; br <buffer offset>.
					off, _ := e.intraOff(r, callee)
					op, disp = isa.OpBSRX, int32(off-(pos+2))
				case info.expand && e.conf.CompileTimeRestoreStubs:
					tw, err := e.rsWord(r.ID, pos+1)
					if err != nil {
						return nil, err
					}
					op, ra, disp = isa.OpBR, isa.RegZero, extDisp(tw, pos, 1)
				case info.expand:
					tw, err := wordAddr(callee)
					if err != nil {
						return nil, err
					}
					op, disp = isa.OpBSRX, extDisp(tw, pos, 2)
				default: // buffer-safe
					tw, err := wordAddr(callee)
					if err != nil {
						return nil, err
					}
					disp = extDisp(tw, pos, 1)
				}
				w, branch = op<<26|ra<<21, true
			case isCall && info.site.Indirect: // jsr
				switch {
				case info.expand && e.conf.CompileTimeRestoreStubs:
					tw, err := e.rsWord(r.ID, pos+1)
					if err != nil {
						return nil, err
					}
					w, disp, branch = isa.OpBR<<26|isa.RegZero<<21, extDisp(tw, pos, 1), true
				case info.expand:
					// jsrx keeps the jsr's registers and drops its hint.
					w = isa.OpJSRX<<26 | w&(0x3FF<<16) | isa.JmpJSR<<14
				}
				// Otherwise intra-region or buffer-safe: register-based,
				// unchanged.
			case in.Kind() == cfg.TargetBranch:
				t := e.x.Target(in)
				if off, intra := e.intraOff(r, t); intra {
					disp = int32(off - (pos + 1))
				} else {
					tw, err := wordAddr(t)
					if err != nil {
						return nil, err
					}
					disp = extDisp(tw, pos, 1)
				}
				branch = true
			case in.Kind() == cfg.TargetHi16 || in.Kind() == cfg.TargetLo16:
				a, err := e.laAddr(r, in)
				if err != nil {
					return nil, err
				}
				a += int64(e.prog.RefOf(in).Addend)
				lo := int64(int16(a & 0xFFFF))
				imm := uint32(uint16(lo))
				if in.Kind() == cfg.TargetHi16 {
					imm = uint32(uint16((a - lo) >> 16))
				}
				w = w&^0xFFFF | imm
			}
			if branch {
				var err error
				if w, err = patchBranch(w, disp); err != nil {
					return nil, fmt.Errorf("region %d block %s inst %d: %w", r.ID, b.Label, j, err)
				}
			}
			seq = append(seq, w)
			pos += width
		}
		// The layout and this pass must agree on which calls expand: a
		// disagreement would shift every later buffer offset.
		knit := insIdx < len(lay.inserted) && lay.inserted[insIdx][0] == bi
		end := lay.words
		switch {
		case knit:
			end = lay.inserted[insIdx][1]
		case bi+1 < len(r.Blocks):
			end = lay.blockOff[bi+1]
		}
		if pos != end {
			return nil, fmt.Errorf("region %d block %s: encoding ends at buffer word %d, layout at %d",
				r.ID, b.Label, pos, end)
		}
		// Knit branch inserted after this block by the layout.
		if knit {
			t := e.x.FallsTo[i]
			var disp int32
			if off, intra := e.intraOff(r, t); intra {
				disp = int32(off - (pos + 1))
			} else {
				tw, err := wordAddr(t)
				if err != nil {
					return nil, err
				}
				disp = extDisp(tw, pos, 1)
			}
			w, err := patchBranch(isa.OpBR<<26|isa.RegZero<<21, disp)
			if err != nil {
				return nil, fmt.Errorf("region %d knit branch after block %s: %w", r.ID, b.Label, err)
			}
			seq = append(seq, w)
			insIdx++
		}
	}
	return seq, nil
}

// rsWord returns the text word address of the compile-time restore stub
// for the call site of region that resumes at buffer offset resume.
func (e *encoder) rsWord(region, resume int) (int, error) {
	for k, s := range e.rs {
		if s.region == region && s.resume == resume {
			return int(e.addr[e.slot(slotRS0+k)]) / isa.WordSize, nil
		}
	}
	return 0, fmt.Errorf("no compile-time restore stub for region %d resume %d", region, resume)
}

// blockAddr returns the output address of block t's post-rewrite
// equivalent: the block itself, or its entry stub when it is compressed.
func (e *encoder) blockAddr(t int32) (uint32, error) {
	if t == cfg.NoBlock {
		return 0, fmt.Errorf("branch to a symbol that is not a block")
	}
	if e.addr[t] == 0 {
		return 0, fmt.Errorf("reference to %s, which has no address", e.retarget(t))
	}
	return e.addr[t], nil
}

// patchBranch sets branch word w's 21-bit displacement field to disp. A
// resolved displacement that leaves the field is an error rather than a
// silent truncation.
func patchBranch(w uint32, disp int32) (uint32, error) {
	if disp < -(1<<20) || disp >= 1<<20 {
		return 0, fmt.Errorf("branch displacement %d exceeds 21 bits", disp)
	}
	return w&^0x1FFFFF | uint32(disp)&0x1FFFFF, nil
}

// laAddr resolves the address the la instruction in inside region r must
// materialize: data symbols resolve normally; compressed labels resolve to
// their entry stub; surviving code labels resolve directly.
func (e *encoder) laAddr(r *regions.Region, in cfg.Inst) (int64, error) {
	// Taken addresses of compressed labels always resolve to the entry
	// stub, never to a buffer address: the pointer may be used after the
	// buffer has been overwritten by another region.
	if t := e.x.Target(in); t != cfg.NoBlock {
		a, err := e.blockAddr(t)
		if err != nil {
			return 0, fmt.Errorf("region %d: %w", r.ID, err)
		}
		return int64(a), nil
	}
	if d := e.x.DataTarget(in); d >= 0 {
		return int64(e.prog.DataSymbols[d].Addr()), nil
	}
	return 0, fmt.Errorf("la of unknown symbol %q in region %d", e.prog.Target(in), r.ID)
}
