package main

import (
	"fmt"
	"runtime"
	"time"
)

// A path is one measured end-to-end path. The scheduler interleaves small
// units of every path over the whole measuring window, so that every path
// samples the same stretch of machine time.
type path interface {
	// unit runs one small piece of work (one squash, one program run, one
	// slice of daemon traffic) and records its samples against unit k.
	unit(k int, traced bool) error
	// ready reports whether the path has the samples its metrics need.
	ready(traced bool) bool
	// publish records the path's metrics in the ledger and returns the
	// time of one operation, which a traced run compares with the
	// untraced one.
	publish(traced bool) (perOp float64, err error)
}

// primaryShare is the share of the measuring time the named workload's
// path gets. The other two split the rest in proportion to probeWeight,
// which reflects how many samples each path's metrics need to be steady:
// the daemon's latency quantiles need the most, a program run the fewest.
const primaryShare = 0.5

var probeWeight = map[phase]float64{phaseSquash: 0.25, phaseRun: 0.2, phaseThrash: 0.2, phaseServe: 0.35}

var phaseNames = map[phase]string{
	phaseSquash: "squash", phaseRun: "run", phaseThrash: "thrash", phaseServe: "serve",
}

type scheduled struct {
	ph     phase
	p      path
	weight float64
	spent  time.Duration
	units  int
}

// measure runs units of the three paths, always the one furthest below its
// share of the time, until the budget is spent and every path is ready.
// Each unit starts from a collected heap and a calibration sample. In a
// traced run the other paths are traced throughout, and the named path
// alternates untraced and traced units so that trace.overhead_ratio
// compares the two over the same window.
func (b *bench) measure() error {
	vm := phaseRun
	if b.primary == phaseThrash {
		vm = phaseThrash
	}
	sp := newServePath(b)
	defer sp.close()
	paths := []*scheduled{
		{ph: phaseSquash, p: newSquashPath(b)},
		{ph: vm, p: newVMPath(b, vm)},
		{ph: phaseServe, p: sp},
	}
	others := 0.0
	for _, s := range paths {
		if s.ph != b.primary {
			others += probeWeight[s.ph]
		}
	}
	for _, s := range paths {
		s.weight = (1 - primaryShare) * probeWeight[s.ph] / others
		if s.ph == b.primary {
			s.weight = primaryShare
		}
	}
	ready := func(s *scheduled) bool {
		if !b.opts.trace {
			return s.p.ready(false)
		}
		return s.p.ready(true) && (s.ph != b.primary || s.p.ready(false))
	}

	deadline := time.Now().Add(b.opts.budget)
	giveUp := deadline.Add(b.opts.budget + 90*time.Second)
	for {
		var pick *scheduled
		now := time.Now()
		if now.After(giveUp) {
			return fmt.Errorf("paths still lack samples %s after the measuring time", b.opts.budget)
		}
		if now.Before(deadline) {
			for _, s := range paths {
				if pick == nil || s.spent.Seconds()/s.weight < pick.spent.Seconds()/pick.weight {
					pick = s
				}
			}
		} else {
			for _, s := range paths {
				if !ready(s) {
					pick = s
					break
				}
			}
			if pick == nil {
				break
			}
		}
		traced := b.opts.trace && (pick.ph != b.primary || pick.units%2 == 1)
		// A fresh em-run or squash process starts with an empty heap; so
		// does every unit, and one path's garbage is not collected on
		// another path's time.
		runtime.GC()
		k := b.cal.mark()
		t := time.Now()
		if err := pick.p.unit(k, traced); err != nil {
			return err
		}
		pick.spent += time.Since(t)
		pick.units++
	}
	b.cal.mark()

	for _, s := range paths {
		if !b.opts.trace || s.ph != b.primary {
			if _, err := s.p.publish(b.opts.trace); err != nil {
				return err
			}
			continue
		}
		plain, err := s.p.publish(false)
		if err != nil {
			return err
		}
		traced, err := s.p.publish(true)
		if err != nil {
			return err
		}
		b.led.set("trace.overhead_ratio", traced/plain)
		b.led.note("tracing overhead on %s: %.3f (traced/untraced time per operation)", phaseNames[s.ph], traced/plain)
	}
	for _, s := range paths {
		b.led.note("%s path: %d units, %.2fs", phaseNames[s.ph], s.units, s.spent.Seconds())
	}
	b.led.set("calib.kernel_ms", b.cal.rawMedian())
	b.led.note("calibration kernel: median %.3f ms raw over %d samples (reference %.1f ms)",
		b.cal.rawMedian(), len(b.cal.cal), calRefMS)
	return nil
}

// medianTimes returns, for each list of samples of identical work, the
// median of its times on the reference machine.
func (b *bench) medianTimes(samples [][]sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = median(b.cal.times(s))
	}
	return out
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// everyHas reports whether every sample list holds at least n samples.
func everyHas(samples [][]sample, n int) bool {
	for _, s := range samples {
		if len(s) < n {
			return false
		}
	}
	return true
}
