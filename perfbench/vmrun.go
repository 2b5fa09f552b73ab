package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/objfile"
	"repro/internal/vm"
)

// timedHook wraps the decompression runtime so the traced run can split
// Machine.Run into VM dispatch and the time spent in Runtime.Enter.
type timedHook struct {
	rt    *core.Runtime
	d     time.Duration
	calls uint64
}

func (h *timedHook) Range() (uint32, uint32) { return h.rt.Range() }

func (h *timedHook) Enter(m *vm.Machine) error {
	t := time.Now()
	err := h.rt.Enter(m)
	h.d += time.Since(t)
	h.calls++
	return err
}

// vmLayers is one traced program run split by layer.
type vmLayers struct {
	read, rtNew, vmNew, dispatch, enter, total time.Duration

	calls, decomp, evict, bits uint64
	memoHits, memoFills        uint64
	predecodes, invalidated    uint64
	fastSteps, insts           uint64
}

// vmPath is the em-run path, one program per unit: read the θ = 5e-5
// image, decode its squash metadata, build the runtime and the machine,
// install the runtime and run to halt, on the seeded run input (run) or
// trigger-byte input (thrash). Every output must equal the squeezed
// program's output on the same input.
type vmPath struct {
	b      *bench
	ph     phase
	kind   int // index into program.in
	next   [2]int
	secs   [2][][]sample // seconds per run, by program
	insts  []uint64      // instructions per run, by program
	cycles []float64     // squashed over squeezed cycles, by program
	layers [][]vmLayers  // traced runs, by program
}

func newVMPath(b *bench, ph phase) *vmPath {
	n := len(b.progs)
	v := &vmPath{b: b, ph: ph, insts: make([]uint64, n), cycles: make([]float64, n), layers: make([][]vmLayers, n)}
	if ph == phaseThrash {
		v.kind = 1
	}
	v.secs = [2][][]sample{make([][]sample, n), make([][]sample, n)}
	return v
}

func (v *vmPath) unit(k int, traced bool) error {
	t := idx(traced)
	i := v.next[t]
	v.next[t] = (i + 1) % len(v.b.progs)
	p := v.b.progs[i]
	in := &p.in[v.kind]

	t0 := time.Now()
	im, err := objfile.ReadImage(bytes.NewReader(p.image))
	if err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	t1 := time.Now()
	meta, err := core.UnmarshalMeta(im.Meta)
	if err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	rt, err := core.NewRuntime(meta)
	if err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	t2 := time.Now()
	m := vm.New(im, in.data)
	t3 := time.Now()
	var h *timedHook
	if traced {
		h = &timedHook{rt: rt}
		m.Hook = h
	} else {
		rt.Install(m)
	}
	t4 := time.Now()
	err = m.Run()
	t5 := time.Now()
	v.b.chk.check(err == nil && bytes.Equal(m.Output, in.want),
		"%s %s: squashed output differs from the squeezed output (err %v)", phaseNames[v.ph], p.name, err)
	v.secs[t][i] = append(v.secs[t][i], sample{t5.Sub(t0).Seconds(), k})
	v.insts[i] = m.Instructions
	v.cycles[i] = float64(m.Cycles) / float64(in.cycles)
	if traced {
		v.layers[i] = append(v.layers[i], vmLayers{
			read: t1.Sub(t0), rtNew: t2.Sub(t1), vmNew: t3.Sub(t2),
			enter: h.d, dispatch: t5.Sub(t4) - h.d, total: t5.Sub(t0),
			calls: h.calls, decomp: rt.Stats.Decompressions, evict: rt.Stats.Evictions,
			bits: rt.Stats.BitsRead, memoHits: rt.Telem.MemoHits, memoFills: rt.Telem.MemoFills,
			predecodes: m.Telem.Predecodes, invalidated: m.Telem.InvalidatedWords,
			fastSteps: m.FastSteps(), insts: m.Instructions,
		})
	}
	return nil
}

func (v *vmPath) ready(traced bool) bool { return everyHas(v.secs[idx(traced)], 2) }

// publish reports host time per simulated instruction as the sum of each
// program's median run time over the sum of their instruction counts. The
// per-layer times are sums over programs of per-program medians of raw
// times, so they describe one pass over the four images.
func (v *vmPath) publish(traced bool) (float64, error) {
	var insts uint64
	for _, n := range v.insts {
		insts += n
	}
	nsPerInst := sum(v.b.medianTimes(v.secs[idx(traced)])) * 1e9 / float64(insts)
	if !traced {
		v.b.led.set("run_ns_per_inst", nsPerInst)
		v.b.led.set("cycles_ratio", geoMean(v.cycles))
		return nsPerInst, nil
	}
	layer := func(f func(l *vmLayers) time.Duration) float64 {
		total := 0.0
		for _, runs := range v.layers {
			s := make([]float64, len(runs))
			for j := range runs {
				s[j] = f(&runs[j]).Seconds()
			}
			total += median(s)
		}
		return total
	}
	loads := float64(len(v.b.progs))
	read := layer(func(l *vmLayers) time.Duration { return l.read })
	rtNew := layer(func(l *vmLayers) time.Duration { return l.rtNew })
	vmNew := layer(func(l *vmLayers) time.Duration { return l.vmNew })
	dispatch := layer(func(l *vmLayers) time.Duration { return l.dispatch })
	enter := layer(func(l *vmLayers) time.Duration { return l.enter })
	v.b.led.set("objfile.read_ms", read*1e3/loads)
	v.b.led.set("core.runtime_new_ms", rtNew*1e3/loads)
	v.b.led.set("vm.new_ms", vmNew*1e3/loads)
	v.b.led.set("vm.dispatch_s", dispatch)
	v.b.led.set("core.runtime_enter_s", enter)
	// Coverage and the remainder come from sums over every traced run, as
	// medians of parts need not add up to the median of the whole.
	var attributed, whole time.Duration
	runs := 0
	for _, rs := range v.layers {
		for _, l := range rs {
			attributed += l.read + l.rtNew + l.vmNew + l.dispatch + l.enter
			whole += l.total
			runs++
		}
	}
	passes := float64(runs) / loads
	v.b.led.set("run.unattributed_s", (whole-attributed).Seconds()/passes)
	v.b.coverage("run", attributed.Seconds()/whole.Seconds())

	// The counts repeat exactly on every run of a program.
	var c vmLayers
	for _, runs := range v.layers {
		l := runs[0]
		c.calls += l.calls
		c.decomp += l.decomp
		c.evict += l.evict
		c.bits += l.bits
		c.memoHits += l.memoHits
		c.memoFills += l.memoFills
		c.predecodes += l.predecodes
		c.invalidated += l.invalidated
		c.fastSteps += l.fastSteps
		c.insts += l.insts
	}
	v.b.led.set("core.runtime_enter_calls", float64(c.calls))
	v.b.led.set("core.decompressions", float64(c.decomp))
	v.b.led.set("core.evictions", float64(c.evict))
	v.b.led.set("core.bits_read", float64(c.bits))
	v.b.led.set("core.memo_hit_ratio", float64(c.memoHits)/float64(max(c.memoHits+c.memoFills, 1)))
	v.b.led.set("vm.predecodes", float64(c.predecodes))
	v.b.led.set("vm.invalidated_words", float64(c.invalidated))
	v.b.led.set("vm.fast_step_ratio", float64(c.fastSteps)/float64(max(c.insts, 1)))
	return nsPerInst, v.decodeRegions()
}

// decodeRegions decodes every region of every image through the image's
// own coder and reports the mean time per region.
func (v *vmPath) decodeRegions() error {
	var d time.Duration
	n := 0
	const reps = 3
	for _, p := range v.b.progs {
		im, err := objfile.ReadImage(bytes.NewReader(p.image))
		if err != nil {
			return err
		}
		meta, err := core.UnmarshalMeta(im.Meta)
		if err != nil {
			return err
		}
		comp, err := meta.Compressor()
		if err != nil {
			return err
		}
		for r := 0; r < reps; r++ {
			t := time.Now()
			for _, off := range meta.OffsetTable {
				if _, err := comp.Decompress(meta.Blob, int(off), func(isa.Inst) error { return nil }); err != nil {
					return fmt.Errorf("%s: %w", p.name, err)
				}
			}
			d += time.Since(t)
			n += len(meta.OffsetTable)
		}
	}
	v.b.led.set("streamcomp.decode_region_us", float64(d)/float64(time.Microsecond)/float64(max(n, 1)))
	return nil
}
