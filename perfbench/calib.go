package main

import (
	"sync"
	"time"
)

// The machines this benchmark runs on change speed by up to a factor of two
// over seconds to minutes, as other tenants load the shared cores. Raw
// times therefore differ more between two runs of the same code than the
// regressions the benchmark must catch. To factor the machine out, the
// scheduler runs a fixed calibration kernel (code that no change under
// test can alter) before every unit of work, and every end-to-end time is
// reported scaled by calRefMS over the kernel's time around its unit: the
// time the work would have taken with the kernel at calRefMS. The daemon
// path scales by the median factor over its units, and set-up by a run of
// the kernel on both CPUs at once. The raw kernel times are printed in the
// report, and calib.kernel_ms in the traced run, so raw figures can be
// recovered.

// calRefMS is the kernel's time on the 2-CPU Xeon this benchmark was sized
// on, in that machine's fast phase; both kernels are scaled to it.
const calRefMS = 4.0

// calTables gives each concurrent kernel its own 1 MiB table: it misses L2
// and stays in L3.
var calTables = [threads][]uint32{make([]uint32, 1<<18), make([]uint32, 1<<18)}

// calKernel runs the calibration kernel once, a mix of integer arithmetic,
// data-dependent branches and random reads and writes over a 1 MiB table,
// and returns its time in milliseconds. It calibrates work that runs on
// one CPU: a squash, a program run.
func calKernel() float64 {
	t := time.Now()
	calSink = kernel(calTables[0])
	return ms(time.Since(t))
}

// calKernelPar runs the kernel on every CPU the benchmark uses at once and
// returns the wall time in milliseconds. It calibrates set-up, which keeps
// those CPUs busy together.
func calKernelPar() float64 {
	t := time.Now()
	var wg sync.WaitGroup
	for i := range calTables {
		wg.Add(1)
		go func(tab []uint32) {
			defer wg.Done()
			kernel(tab)
		}(calTables[i])
	}
	wg.Wait()
	return ms(time.Since(t))
}

func kernel(tab []uint32) uint32 {
	x := uint32(12345)
	var acc uint32
	for i := 0; i < 2_000_000; i++ {
		x = x*1664525 + 1013904223
		j := (x >> 8) & uint32(len(tab)-1)
		acc += tab[j]
		tab[j] = acc ^ x
		if acc&1 == 0 {
			acc += 3
		}
	}
	return acc
}

var calSink uint32

// sample is one measured value and the unit of work it came from.
type sample struct {
	v    float64
	unit int
}

// calibration holds the kernel times taken between units: cal[k] was
// taken just before unit k and cal[k+1] just after it.
type calibration struct{ cal []float64 }

func (c *calibration) mark() int {
	c.cal = append(c.cal, calKernel())
	return len(c.cal) - 1
}

// factor is calRefMS over the mean kernel time around unit k; multiplying
// a time measured in unit k by it gives the time on the reference machine.
func (c *calibration) factor(k int) float64 {
	around := c.cal[k]
	if k+1 < len(c.cal) {
		around = (around + c.cal[k+1]) / 2
	}
	return calRefMS / around
}

// times returns the samples scaled to the reference machine.
func (c *calibration) times(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.v * c.factor(x.unit)
	}
	return out
}

// rawMedian is the median kernel time, for the report.
func (c *calibration) rawMedian() float64 { return median(c.cal) }
