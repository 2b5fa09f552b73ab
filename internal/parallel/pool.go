package parallel

import (
	"context"
	"errors"
	"sync"

	"repro/internal/obs"
)

// ErrPoolClosed is returned by Submit after Close.
var ErrPoolClosed = errors.New("parallel: pool is closed")

// Pool is a bounded worker pool for long-lived servers: a fixed set of
// goroutines receiving tasks from an unbuffered channel. Unlike ForEach/Map
// — which spread one finite batch and then join — a Pool accepts tasks for
// its whole lifetime and bounds how many run at once, which is what a
// serving process needs to keep request concurrency from exceeding the
// machine. The channel is unbuffered, so a successful Submit means a worker
// has committed to the task, and submission blocks while every worker is
// busy — the caller's context bounds queueing time.
type Pool struct {
	tasks chan func()
	done  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once

	// Instruments, fixed at construction (NewPoolObs) so workers never race
	// a later assignment. All nil when the pool is unobserved; every obs
	// method is a no-op on nil.
	queueDepth  *obs.Gauge
	busyWorkers *obs.Gauge
	tasksDone   *obs.Counter
}

// NewPoolObs starts a pool of the given size (<= 0 means one worker per CPU,
// GOMAXPROCS) whose occupancy is published to reg: queue depth (submitters
// blocked waiting for a worker), busy workers, a completed-task counter,
// and the fixed worker count. reg may be nil.
func NewPoolObs(size int, reg *obs.Registry) *Pool {
	size = Workers(size)
	p := &Pool{tasks: make(chan func()), done: make(chan struct{})}
	if reg != nil {
		p.queueDepth = reg.Gauge("pool_queue_depth")
		p.busyWorkers = reg.Gauge("pool_busy_workers")
		p.tasksDone = reg.Counter("pool_tasks_done_total")
		reg.Gauge("pool_workers").Set(int64(size))
	}
	p.wg.Add(size)
	for i := 0; i < size; i++ {
		go func() {
			defer p.wg.Done()
			for {
				select {
				case task := <-p.tasks:
					p.busyWorkers.Add(1)
					task()
					p.busyWorkers.Add(-1)
					p.tasksDone.Inc()
				case <-p.done:
					return
				}
			}
		}()
	}
	return p
}

// Submit hands task to an idle worker, blocking until one accepts it or ctx
// is done. It returns ctx.Err() on expiry and ErrPoolClosed after Close.
// The task runs in exactly the cases where Submit returns nil: the channel
// is unbuffered, so a completed send is a worker's commitment to run it.
func (p *Pool) Submit(ctx context.Context, task func()) error {
	select {
	case <-p.done:
		return ErrPoolClosed
	default:
	}
	p.queueDepth.Add(1)
	defer p.queueDepth.Add(-1)
	select {
	case p.tasks <- task:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-p.done:
		return ErrPoolClosed
	}
}

// Close stops accepting tasks and waits for every accepted task to finish.
// Safe to call more than once.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.done) })
	p.wg.Wait()
}
