package core

import (
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
	// place holds, for each block of the output program in layout order
	// (the order of Lower's text symbols), the slot of addr its linked
	// address fills: the block number of a surviving block or of the
	// compressed block an entry stub stands for, or len(x.Blocks) plus a
	// slot constant. addr is read by slot once the image is linked; the
	// slot of a compressed block without an entry stub stays 0.
	place []int32
	addr  []uint32
	// dataSyms is the linked image's data symbols, in Program.DataSymbols
	// order.
	dataSyms []objfile.Symbol
}

// regionLayout fixes where every region instruction lands in the runtime
// buffer (word offsets; offset 0 is the dispatch jump the decompressor
// writes).
type regionLayout struct {
	blockOff []int    // buffer word offset of each block, in layout order
	instOff  [][]int  // [block index][inst index] -> buffer word offset
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
	resume int // buffer word offset to return to
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
		instOff:  make([][]int, len(r.Blocks)),
		order:    append([]int32(nil), r.Members...),
	}
	pos := 1
	for bi, b := range r.Blocks {
		i := r.Members[bi]
		lay.blockOff[bi] = pos
		e.blockOff[i] = pos
		lay.boundaries++
		calls := e.x.Calls(i)
		k := 0 // next call site
		lay.instOff[bi] = make([]int, len(b.Insts))
		for j := range b.Insts {
			lay.instOff[bi][j] = pos
			expand := false
			if k < len(calls) && calls[k].InstIdx == j {
				expand = e.classifyCall(r, i, k).expand
				k++
			}
			if expand && !e.conf.CompileTimeRestoreStubs {
				pos += 2
				lay.boundaries++ // resume point after the call
			} else {
				pos++
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

// run executes the layout, transform, encode, and accounting phases.
func (e *encoder) run(stats *Stats) (*Output, error) {
	// Phase 1: region layouts (address-independent). Regions are mutually
	// independent here, so the layouts fan out; each writes only its own
	// slot, indexed by region ID, so the merged result is order-free.
	sp := e.span.Child("layout")
	e.layouts = make([]*regionLayout, len(e.res.Regions))
	e.blockOff = make([]int, len(e.x.Blocks))
	if err := parallel.ForEach(len(e.res.Regions), e.conf.Workers, func(i int) error {
		r := e.res.Regions[i]
		lay := e.layoutRegion(r)
		if lay.words > e.conf.Regions.K/isa.WordSize {
			return fmt.Errorf("region %d lays out to %d words, buffer holds %d",
				r.ID, lay.words, e.conf.Regions.K/isa.WordSize)
		}
		e.layouts[r.ID] = lay
		return nil
	}); err != nil {
		return nil, err
	}
	sp.End()

	// Phase 2: build and link the output program.
	sp = e.span.Child("build.link")
	out, entryStubWords, rsWords, stubAreaWords, err := e.buildOutput()
	if err != nil {
		return nil, err
	}
	obj2, err := cfg.Lower(out)
	if err != nil {
		return nil, err
	}
	im, err := objfile.Link(out.Entry, obj2)
	if err != nil {
		return nil, err
	}
	// The linked symbols are Lower's: the data symbols, then one per
	// output block in layout order, so each block's address lands in its
	// slot by position.
	nd := len(out.DataSymbols)
	if len(im.Symbols) != nd+len(e.place) {
		return nil, fmt.Errorf("linked %d symbols for %d data symbols and %d blocks", len(im.Symbols), nd, len(e.place))
	}
	e.dataSyms = im.Symbols[:nd]
	e.addr = make([]uint32, int(e.slot(slotRS0))+len(e.rs))
	for j, s := range im.Symbols[nd:] {
		e.addr[e.place[j]] = s.Addr()
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
		NeverCompressed:    (preBlobWords - entryStubWords - rsWords - DecompWords - stubAreaWords - rtbufWords) * isa.WordSize,
		EntryStubs:         entryStubWords * isa.WordSize,
		RestoreStubsStatic: rsWords * isa.WordSize,
		Decompressor:       DecompWords * isa.WordSize,
		OffsetTable:        offtabBytes,
		CompressedCode:     blobWords * isa.WordSize,
		CodeTables:         len(tables),
		StubArea:           stubAreaWords * isa.WordSize,
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
	stats.EntryStubCount = entryStubWords / regions.EntryStubWords
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

// buildOutput assembles the rewritten program: surviving code with
// references retargeted to stubs, the stubs themselves, and the reserved
// decompressor/stub-area/buffer regions. It reports the word sizes of the
// stub groups for accounting, and records each output block's address
// slot in e.place.
func (e *encoder) buildOutput() (out *cfg.Program, entryStubWords, rsWords, stubAreaWords int, err error) {
	// Entry stubs: two words each — a call to the decompressor through the
	// AT entry point, then the tag word <region index, buffer offset>.
	// In compile-time-restore-stub mode, static stubs call compressed
	// callees by symbol, so every such callee needs an entry stub even if
	// all its callers share its region. The entries are found first, so
	// that each stub's label is made once and every reference below is
	// retargeted by block number.
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
	// Surviving blocks and entry stubs stand for distinct blocks, so only
	// the reserved areas and restore stubs can exceed one slot per block.
	e.place = make([]int32, 0, int(e.slot(slotRS0)))
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

	out = &cfg.Program{
		Data:        append([]byte(nil), e.prog.Data...),
		DataSymbols: append([]objfile.Symbol(nil), e.prog.DataSymbols...),
		Entry:       e.prog.Entry,
		Refs:        slices.Clone(e.prog.Refs),
		DataRelocs:  slices.Clone(e.prog.DataRelocs),
	}
	if e.x.Entry != cfg.NoBlock {
		out.Entry = e.retarget(e.x.Entry)
	}
	// Surviving instructions keep their reference indices, so retargeting
	// the copied side table retargets every one of them.
	for k, t := range e.x.RefTo {
		if t >= 0 && e.stubOf[t] > 0 {
			out.Refs[k].Sym = e.retarget(t)
		}
	}
	for k, t := range e.x.RelocTo {
		if t >= 0 {
			out.DataRelocs[k].Sym = e.retarget(t)
		}
	}

	// Surviving functions.
	for fi, f := range e.prog.Funcs {
		var kept []*cfg.Block
		for bi, b := range f.Blocks {
			i := e.x.FuncStart[fi] + int32(bi)
			if e.compressed[i] {
				continue
			}
			// The block shares b's instructions: nothing past here edits
			// them, and their references resolve through out.Refs.
			nb := &cfg.Block{
				Label:      b.Label,
				Insts:      b.Insts,
				JT:         b.JT,
				SrcWordOff: b.SrcWordOff,
				Freq:       b.Freq,
				Weight:     b.Weight,
			}
			if t := e.x.FallsTo[i]; t != cfg.NoBlock {
				nb.FallsTo = e.retarget(t)
			}
			kept = append(kept, nb)
			e.place = append(e.place, i)
		}
		if len(kept) == 0 {
			continue
		}
		name := f.Name
		if kept[0].Label != name {
			name = kept[0].Label
		}
		out.Funcs = append(out.Funcs, &cfg.Func{Name: name, Blocks: kept})
	}

	for _, r := range e.res.Regions {
		for _, entry := range entries[r.ID] {
			off := e.blockOff[entry]
			if off >= 1<<16 || r.ID >= 1<<16 {
				return nil, 0, 0, 0, fmt.Errorf("tag overflow: region %d offset %d", r.ID, off)
			}
			tag := uint32(r.ID)<<16 | uint32(off)
			sb := &cfg.Block{
				Label: e.retarget(entry),
				Insts: []cfg.Inst{
					out.Refer(isa.Encode(isa.Br(isa.OpBSR, isa.RegAT, 0)), cfg.TargetBranch,
						symDecomp, int32(isa.RegAT*isa.WordSize)),
					cfg.RawWord(tag),
				},
			}
			out.Funcs = append(out.Funcs, &cfg.Func{Name: sb.Label, Blocks: []*cfg.Block{sb}})
			e.place = append(e.place, entry)
			entryStubWords += regions.EntryStubWords
		}
	}

	// Compile-time restore stubs (ablation): one static stub per expanded
	// call site, each three words: the call, the decompressor invocation,
	// and the tag.
	if e.conf.CompileTimeRestoreStubs {
		for _, r := range e.res.Regions {
			lay := e.layouts[r.ID]
			for bi, b := range r.Blocks {
				i := r.Members[bi]
				for k := range e.x.Calls(i) {
					info := e.classifyCall(r, i, k)
					if !info.expand {
						continue
					}
					j := info.site.InstIdx
					in := b.Insts[j]
					stub := rsStub{
						label:  fmt.Sprintf("rs$%d", len(e.rs)),
						region: r.ID,
						resume: lay.instOff[bi][j] + 1,
						isJSR:  info.site.Indirect,
					}
					e.place = append(e.place, e.slot(slotRS0+len(e.rs)))
					e.rs = append(e.rs, stub)
					tag := uint32(r.ID)<<16 | uint32(stub.resume)
					ra := in.RA()
					bsr := isa.Encode(isa.Br(isa.OpBSR, ra, 0))
					callInst := cfg.Inst{Word: in.Word}
					if !stub.isJSR {
						target := e.prog.Target(in)
						if info.callee != cfg.NoBlock {
							target = e.retarget(info.callee)
						}
						callInst = out.Refer(bsr, cfg.TargetBranch, target, 0)
					}
					sb := &cfg.Block{
						Label: stub.label,
						Insts: []cfg.Inst{
							callInst,
							out.Refer(bsr, cfg.TargetBranch, symDecomp, int32(ra*isa.WordSize)),
							cfg.RawWord(tag),
						},
					}
					out.Funcs = append(out.Funcs, &cfg.Func{Name: sb.Label, Blocks: []*cfg.Block{sb}})
					rsWords += 3
				}
			}
		}
	}

	// Reserved regions, filled with trapping sentinels: the decompressor
	// (entered only through the interception hook), the restore-stub area
	// (rewritten at run time), and the runtime buffer.
	reserved := func(name string, words, slot int) {
		insts := make([]cfg.Inst, words)
		for i := range insts {
			insts[i] = cfg.RawWord(isa.Sentinel)
		}
		blk := &cfg.Block{Label: name, Insts: insts}
		out.Funcs = append(out.Funcs, &cfg.Func{Name: name, Blocks: []*cfg.Block{blk}})
		e.place = append(e.place, e.slot(slot))
	}
	stubAreaWords = e.conf.StubCapacity * StubSlotWords
	if e.conf.CompileTimeRestoreStubs {
		stubAreaWords = 0
	}
	reserved(symDecomp, DecompWords, slotDecomp)
	reserved(symStubArea, stubAreaWords, slotStubArea)
	reserved(symRtBuf, e.conf.Regions.K/isa.WordSize, slotRtBuf)
	return out, entryStubWords, rsWords, stubAreaWords, nil
}

// buildSeq produces the final instruction word sequence for region r: all
// displacement fields resolved against the fixed buffer layout and the
// linked addresses in e.addr, calls rewritten per their
// classification (intra-region, buffer-safe, expanded, or routed through a
// compile-time restore stub). The sequence appends into dst, which the
// caller sizes to the exact length implied by the layout (see scratch.go);
// an undersized dst still produces a correct sequence, it just reallocates.
func (e *encoder) buildSeq(r *regions.Region, dst []uint32) ([]uint32, error) {
	lay := e.layouts[r.ID]
	bufWordBase := int(e.addr[e.slot(slotRtBuf)]) / isa.WordSize
	// wordAddr: the text word of block t's post-rewrite equivalent.
	wordAddr := func(t int32) (int, error) {
		a, err := e.blockAddr(r, t)
		return int(a) / isa.WordSize, err
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
		for j, in := range b.Insts {
			pos := lay.instOff[bi][j]
			if in.Raw() {
				return nil, fmt.Errorf("raw word inside region block %s", b.Label)
			}
			var info callInfo
			isCall := k < len(calls) && calls[k].InstIdx == j
			if isCall {
				info = e.classifyCall(r, i, k)
				k++
			}
			// The layout and this pass must agree on which calls expand:
			// a disagreement would shift every later buffer offset.
			width := 1
			if isCall && info.expand && !e.conf.CompileTimeRestoreStubs {
				width = 2
			}
			layWidth := 0
			if j+1 < len(b.Insts) {
				layWidth = lay.instOff[bi][j+1] - pos
			}
			if layWidth != 0 && layWidth != width {
				return nil, fmt.Errorf("region %d block %s inst %d: layout width %d, encode width %d (callee %q expand=%v intra=%v)",
					r.ID, b.Label, j, layWidth, width, info.site.Callee, info.expand, info.intra)
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
		}
		// Knit branch inserted after this block by the layout.
		if insIdx < len(lay.inserted) && lay.inserted[insIdx][0] == bi {
			pos := lay.inserted[insIdx][1]
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

// blockAddr returns the linked address of block t's post-rewrite
// equivalent, for a reference from region r: the block itself, or its
// entry stub when it is compressed.
func (e *encoder) blockAddr(r *regions.Region, t int32) (uint32, error) {
	if t == cfg.NoBlock {
		return 0, fmt.Errorf("region %d branches to a symbol that is not a block", r.ID)
	}
	if e.addr[t] == 0 {
		return 0, fmt.Errorf("region %d references %s, which has no address", r.ID, e.retarget(t))
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
		a, err := e.blockAddr(r, t)
		return int64(a), err
	}
	if d := e.x.DataTarget(in); d >= 0 {
		return int64(e.dataSyms[d].Addr()), nil
	}
	return 0, fmt.Errorf("la of unknown symbol %q in region %d", e.prog.Target(in), r.ID)
}
