package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/regions"
	"repro/internal/unswitch"
)

// squashThetas are the paper's Figure 7 points the squash path runs at.
var squashThetas = []float64{0, baseTheta, 1e-3}

// squashStages maps the stage spans core.SquashObs opens under its
// "squash" root to the per-layer metric each one reports.
var squashStages = map[string]string{
	"cfg.decode":     "cfg.build_ms",
	"region.select":  "core.region_select_ms",
	"buffersafe":     "buffersafe.analyze_ms",
	"layout":         "core.layout_ms",
	"build.link":     "core.build_link_ms",
	"seq.build":      "core.seq_build_ms",
	"coder.train":    "streamcomp.train_ms",
	"region.encode":  "streamcomp.encode_ms",
	"image.finalize": "core.finalize_ms",
}

const mib = 1 << 20

type squashCase struct {
	p    *program
	conf core.Config
}

// squashPath is one-shot core.Squash followed by Image.WriteTo, one
// (program, θ) case per unit, cycling through the cases. The first image of
// each case fixes its digest (the θ = 5e-5 image must also equal the
// set-up one-shot image); every later image of the case must reproduce it.
type squashPath struct {
	b       *bench
	cases   []squashCase
	next    [2]int        // next case, untraced and traced
	secs    [2][][]sample // seconds per unit, by case
	alloc   [][]float64   // MiB allocated per untraced unit, by case
	ratio   []float64     // footprint over squeezed size, by case
	digests map[int][32]byte
	buf     bytes.Buffer

	// Traced units: stage milliseconds summed over objects.
	layer            map[string]float64
	total, attrib    float64
	objects          int
	regions, coldIns []float64 // by case
}

func newSquashPath(b *bench) *squashPath {
	s := &squashPath{b: b, digests: map[int][32]byte{}, layer: map[string]float64{}}
	for _, th := range squashThetas {
		for _, p := range b.progs {
			c := squashCase{p: p, conf: p.conf}
			c.conf.Theta = th
			s.cases = append(s.cases, c)
		}
	}
	n := len(s.cases)
	s.secs = [2][][]sample{make([][]sample, n), make([][]sample, n)}
	s.alloc = make([][]float64, n)
	s.ratio = make([]float64, n)
	s.regions = make([]float64, n)
	s.coldIns = make([]float64, n)
	return s
}

func (s *squashPath) unit(k int, traced bool) error {
	t := idx(traced)
	i := s.next[t]
	s.next[t] = (i + 1) % len(s.cases)
	c := s.cases[i]
	var rec *obs.Recorder
	var tr *obs.Tracer
	if traced {
		tr = obs.NewTracer()
		rec = &obs.Recorder{Trace: tr}
	}
	s.buf.Reset()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	out, err := core.SquashObs(c.p.bench.SqObj, c.p.bench.Profile, c.conf, rec)
	if !s.b.chk.check(err == nil, "squash %s θ=%g: %v", c.p.name, c.conf.Theta, err) {
		return nil
	}
	tw := time.Now()
	_, err = out.Image.WriteTo(&s.buf)
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	if !s.b.chk.check(err == nil, "squash %s θ=%g: write: %v", c.p.name, c.conf.Theta, err) {
		return nil
	}
	s.secs[t][i] = append(s.secs[t][i], sample{t1.Sub(t0).Seconds(), k})
	if !traced {
		s.alloc[i] = append(s.alloc[i], float64(m1.TotalAlloc-m0.TotalAlloc)/mib)
	}
	s.ratio[i] = float64(out.Stats.SquashedBytes) / float64(out.Stats.InputBytes)
	s.checkDigest(i, c, s.buf.Bytes())
	if !traced {
		return nil
	}
	stages, err := stageTimes(tr)
	if err != nil {
		return err
	}
	s.objects++
	s.total += ms(t1.Sub(t0))
	for name, v := range stages {
		metric, ok := squashStages[name]
		if !ok {
			metric = "squash.other_ms"
		}
		s.layer[metric] += v
		s.attrib += v
	}
	s.layer["objfile.write_ms"] += ms(t1.Sub(tw))
	s.attrib += ms(t1.Sub(tw))
	s.regions[i] = float64(out.Stats.RegionCount)
	s.coldIns[i] = float64(out.Stats.ColdInsts)
	return nil
}

// checkDigest compares one squashed image with the digest the case's first
// image fixed.
func (s *squashPath) checkDigest(i int, c squashCase, img []byte) {
	sum := sha256.Sum256(img)
	want, ok := s.digests[i]
	if !ok {
		if c.conf.Theta == baseTheta {
			s.b.chk.check(bytes.Equal(img, c.p.ref), "squash %s θ=%g: image differs from the set-up one-shot image", c.p.name, c.conf.Theta)
		}
		s.digests[i] = sum
		return
	}
	s.b.chk.check(sum == want, "squash %s θ=%g: image digest changed between units", c.p.name, c.conf.Theta)
}

func (s *squashPath) ready(traced bool) bool { return everyHas(s.secs[idx(traced)], 2) }

// publish reports throughput as the squeezed instructions of all cases
// over the sum of each case's median time, so every case weighs in once
// whatever its sample count.
func (s *squashPath) publish(traced bool) (float64, error) {
	secs := s.b.medianTimes(s.secs[idx(traced)])
	perOp := sum(secs) / float64(len(secs))
	if !traced {
		kinsts := 0.0
		for _, c := range s.cases {
			kinsts += float64(c.p.bench.SqueezedInsts()) / 1000
		}
		s.b.led.set("squash_kinsts_per_s", kinsts/sum(secs))
		alloc := 0.0
		for _, a := range s.alloc {
			alloc += median(a)
		}
		s.b.led.set("squash_alloc_mb_per_obj", alloc/float64(len(s.cases)))
		s.b.led.set("image_ratio", geoMean(s.ratio))
		return perOp, nil
	}
	n := float64(s.objects)
	for _, metric := range squashStages {
		s.b.led.set(metric, s.layer[metric]/n)
	}
	s.b.led.set("objfile.write_ms", s.layer["objfile.write_ms"]/n)
	if v := s.layer["squash.other_ms"]; v > 0 {
		s.b.led.note("squash spans outside the known stages: %.3f ms per object", v/n)
	}
	s.b.led.set("squash.unattributed_ms", (s.total-s.attrib)/n)
	s.b.led.set("regions.count", sum(s.regions))
	s.b.led.set("profile.cold_insts", sum(s.coldIns))
	s.b.coverage("squash", s.attrib/s.total)
	return perOp, s.regionSelectSplit()
}

// regionSelectSplit times the three steps of region selection by calling
// them directly on a freshly built and profiled CFG, once per case, and
// measures the heap allocated by CFG construction and partitioning.
func (s *squashPath) regionSelectSplit() error {
	var cold, unsw, part, buildAlloc, partAlloc float64
	var m0, m1 runtime.MemStats
	for _, c := range s.cases {
		runtime.ReadMemStats(&m0)
		p, err := cfg.Build(c.p.bench.SqObj, "main")
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("%s: %w", c.p.name, err)
		}
		buildAlloc += float64(m1.TotalAlloc - m0.TotalAlloc)
		if err := p.AttachProfile(c.p.bench.Profile); err != nil {
			return fmt.Errorf("%s: %w", c.p.name, err)
		}
		t := time.Now()
		cs := profile.IdentifyCold(p, c.conf.Theta)
		cold += ms(time.Since(t))
		if c.conf.Unswitch {
			t = time.Now()
			if _, err := unswitch.Run(p, func(bl *cfg.Block) bool { return cs.Cold[bl.Label] }); err != nil {
				return fmt.Errorf("%s: %w", c.p.name, err)
			}
			unsw += ms(time.Since(t))
			t = time.Now()
			cs = profile.IdentifyCold(p, c.conf.Theta)
			cold += ms(time.Since(t))
		}
		rc := c.conf.Regions
		rc.Workers = c.conf.Workers
		runtime.ReadMemStats(&m0)
		t = time.Now()
		_, _, err = regions.Partition(p, cs.Cold, rc)
		part += ms(time.Since(t))
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("%s: %w", c.p.name, err)
		}
		partAlloc += float64(m1.TotalAlloc - m0.TotalAlloc)
	}
	n := float64(len(s.cases))
	s.b.led.set("profile.identify_cold_ms", cold/n)
	s.b.led.set("unswitch.run_ms", unsw/n)
	s.b.led.set("regions.partition_ms", part/n)
	s.b.led.set("cfg.build_alloc_mb", buildAlloc/n/mib)
	s.b.led.set("regions.partition_alloc_mb", partAlloc/n/mib)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// idx indexes the untraced (0) and traced (1) halves of a path's samples.
func idx(traced bool) int {
	if traced {
		return 1
	}
	return 0
}
