package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mediabench"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/vm"
)

// programs is the fixed measured set: adpcm is the smallest (11.7k squeezed
// instructions), gsm mid-size, pgp the largest (60k, with setjmp/longjmp;
// region selection dominates its squash), and mpeg2dec has the cold loops
// of the paper's §7 loop-split case.
var programs = []string{"adpcm", "gsm", "pgp", "mpeg2dec"}

// baseTheta is the θ of the images the run, thrash and serve paths use.
const baseTheta = 5e-5

// threads bounds the benchmark's own parallelism: set-up fan-out, serve
// clients and daemon workers (the machine this was sized on has 2 CPUs).
const threads = 2

type phase int

const (
	phaseSquash phase = iota
	phaseRun
	phaseThrash
	phaseServe
)

// program is one prepared benchmark with its seeded inputs and references.
type program struct {
	name  string
	bench *experiments.Bench
	obj   []byte      // squeezed object, EMO1 (the serve request payload)
	prof  []byte      // profile, EMP1
	conf  core.Config // θ = baseTheta
	image []byte      // one-shot Squash + WriteTo at conf; the run paths load it
	ref   []byte      // the image outputs are checked against (image, unless corrupted)
	// in holds the seeded run (index 0) and thrash (index 1) inputs with
	// the squeezed program's output and cycles on them.
	in [2]vmInput
}

type vmInput struct {
	data   []byte
	want   []byte
	cycles uint64
}

// daemon is one in-process squash server on a Unix socket.
type daemon struct {
	srv    *serve.Server
	addr   string
	tracer *obs.Tracer // nil for the untraced daemon
	done   chan error
}

// bench is one invocation's state.
type bench struct {
	opts    options
	primary phase
	led     *ledger
	chk     *checker

	cal   calibration
	progs []*program
	// coldSeq numbers the never-seen configurations of serve cache misses.
	coldSeq atomic.Uint64

	plain *daemon // untraced daemon
	trcd  *daemon // traced daemon (trace runs only)
}

// setup prepares the fixture opts.sizes.setupReps times and keeps the
// first. Later repetitions prepare at a profiling scale a thousandth
// smaller per repetition, so the in-memory preparation cache of
// experiments.PrepareSpec misses and every repetition does the same work.
func (b *bench) setup() error {
	reps := b.opts.sizes.setupReps
	if b.opts.trace {
		reps = 1 // setup_s is an end-to-end metric; a traced run reports only its layers
	}
	var total, raw, prep, base []float64
	for r := 0; r < reps; r++ {
		runtime.GC()
		cal := []float64{calKernelPar()}
		start := time.Now()
		progs, tPrep, tBase, err := b.prepare(b.opts.scale*(1-float64(r)/1000), &cal)
		if err != nil {
			return err
		}
		if r == 0 {
			b.progs = progs
		}
		var ds []*daemon
		if !b.opts.trace || b.primary == phaseServe {
			d, err := b.startDaemon(progs, r, false)
			if err != nil {
				return err
			}
			ds = append(ds, d)
		}
		if b.opts.trace {
			d, err := b.startDaemon(progs, r, true)
			if err != nil {
				return err
			}
			ds = append(ds, d)
		}
		elapsed := time.Since(start)
		cal = append(cal, calKernelPar())
		// Scaled to the reference machine like every end-to-end time; the
		// kernels run inside prepare are not counted.
		for _, c := range cal[1 : len(cal)-1] {
			elapsed -= time.Duration(c * float64(time.Millisecond))
		}
		total = append(total, elapsed.Seconds()*calRefMS/mean(cal))
		raw = append(raw, elapsed.Seconds())
		prep = append(prep, tPrep)
		base = append(base, tBase)
		if r == 0 {
			for _, d := range ds {
				if d.tracer != nil {
					b.trcd = d
				} else {
					b.plain = d
				}
			}
			continue
		}
		for _, d := range ds {
			if err := d.stop(); err != nil {
				return err
			}
		}
	}
	b.led.set("setup_s", median(total))
	b.led.set("experiments.prepare_s", median(prep))
	b.led.set("experiments.baseline_run_s", median(base))
	b.led.note("setup_s samples %.4g raw %.4g", total, raw)
	b.corrupt()
	return nil
}

// prepare builds the four programs: preparation through PrepareSpec, the
// seeded inputs, the squeezed baseline runs, and the one-shot images.
//
// It appends a calibration sample after each of its steps to *cal.
func (b *bench) prepare(scale float64, cal *[]float64) (progs []*program, prepS, baseS float64, err error) {
	t0 := time.Now()
	progs, err = parallel.Map(len(programs), threads, func(i int) (*program, error) {
		eb, _, err := experiments.PrepareSpec(programs[i], scale, "")
		if err != nil {
			return nil, err
		}
		p := &program{name: programs[i], bench: eb, conf: core.DefaultConfig()}
		p.conf.Theta = baseTheta
		// One pipeline goroutine per squash: the daemon's pool workers
		// already run requests side by side, and a serial squash is what
		// the one-CPU calibration kernel tracks. Workers never changes an
		// image or its result-cache key.
		p.conf.Workers = 1
		var obj, prof bytes.Buffer
		if _, err := eb.SqObj.WriteTo(&obj); err != nil {
			return nil, err
		}
		if _, err := eb.Profile.WriteTo(&prof); err != nil {
			return nil, err
		}
		p.obj, p.prof = obj.Bytes(), prof.Bytes()
		return p, nil
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("prepare: %w", err)
	}
	prepS = time.Since(t0).Seconds()
	*cal = append(*cal, calKernelPar())

	for _, p := range progs {
		p.in[0].data = seededInput(p.bench.Spec, b.opts.seed, phaseRun, b.opts.sizes.runBytes)
		p.in[1].data = seededInput(p.bench.Spec, b.opts.seed, phaseThrash, b.opts.sizes.thrashBytes)
	}
	t1 := time.Now()
	if err := parallel.ForEach(2*len(progs), threads, func(i int) error {
		p, in := progs[i/2], &progs[i/2].in[i%2]
		m := vm.New(p.bench.SqImage, in.data)
		if err := m.Run(); err != nil {
			return fmt.Errorf("%s baseline run: %w", p.name, err)
		}
		in.want, in.cycles = m.Output, m.Cycles
		return nil
	}); err != nil {
		return nil, 0, 0, err
	}
	baseS = time.Since(t1).Seconds()
	*cal = append(*cal, calKernelPar())

	if err := parallel.ForEach(len(progs), threads, func(i int) error {
		p := progs[i]
		out, err := core.Squash(p.bench.SqObj, p.bench.Profile, p.conf)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		var img bytes.Buffer
		if _, err := out.Image.WriteTo(&img); err != nil {
			return err
		}
		p.image = img.Bytes()
		p.ref = p.image
		return nil
	}); err != nil {
		return nil, 0, 0, err
	}
	*cal = append(*cal, calKernelPar())
	return progs, prepS, baseS, nil
}

// seededInput generates a run input of n bytes from the workload seed with
// the byte classes of Spec.TimingInput (run) or Spec.PathologyInput
// (thrash: trigger bytes only). Each program gets its own stream.
func seededInput(spec mediabench.Spec, seed int64, ph phase, n int) []byte {
	s := spec
	s.Seed = spec.Seed*1_000_003 + seed
	if ph == phaseThrash {
		s.TimeBytes = 2 * n // PathologyInput emits TimeBytes/2 bytes
		return s.PathologyInput()
	}
	s.TimeBytes = n
	return s.TimingInput()
}

// startDaemon starts a squash daemon on the benchmark's socket (suffixed
// per repetition and tracing) and warms its result cache with one request
// per program, checking each image against the one-shot image.
func (b *bench) startDaemon(progs []*program, rep int, traced bool) (*daemon, error) {
	opts := serve.Options{Workers: threads, Logf: func(string, ...any) {}}
	d := &daemon{addr: fmt.Sprintf("unix:%s.%d", b.opts.socket, rep), done: make(chan error, 1)}
	if traced {
		d.addr += "t"
		d.tracer = obs.NewTracer()
		opts.Obs = &obs.Recorder{Trace: d.tracer}
	}
	ln, err := serve.Listen(d.addr)
	if err != nil {
		return nil, err
	}
	d.srv = serve.NewServer(opts)
	go func() { d.done <- d.srv.Serve(ln) }()
	if err := parallel.ForEach(len(progs), threads, func(i int) error {
		p := progs[i]
		c, err := serve.DialClient(d.addr)
		if err != nil {
			return err
		}
		defer c.Close()
		conf := p.conf
		resp, err := c.Do(&serve.Request{Op: serve.OpSquash, Obj: p.obj, Profile: p.prof, Config: &conf})
		if err != nil {
			return fmt.Errorf("warm %s: %w", p.name, err)
		}
		b.chk.check(resp.OK && bytes.Equal(resp.Image, p.ref),
			"serve warm %s: image differs from one-shot squash (err %q)", p.name, resp.Err)
		return nil
	}); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the daemon down and waits for its accept loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; serr != nil && !errors.Is(serr, serve.ErrServerClosed) && !errors.Is(serr, net.ErrClosed) {
		err = errors.Join(err, serr)
	}
	_, addr := serve.SplitAddr(d.addr)
	os.Remove(addr)
	return err
}

func (b *bench) close() {
	for _, d := range []*daemon{b.plain, b.trcd} {
		if d != nil {
			if err := d.stop(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: daemon shutdown:", err)
			}
		}
	}
}

// corrupt damages one reference output when the smoke test asks for it.
func (b *bench) corrupt() {
	if b.opts.corrupt == "" {
		return
	}
	p := b.progs[0]
	switch b.opts.corrupt {
	case "squash", "serve":
		// The θ = 5e-5 squash and every serve response compare against it.
		p.ref = append([]byte(nil), p.ref...)
		p.ref[len(p.ref)/2] ^= 0xff
	case "run":
		p.in[0].want = append([]byte(nil), p.in[0].want...)
		p.in[0].want[0] ^= 0xff
	}
}
