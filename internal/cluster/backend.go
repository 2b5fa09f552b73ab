package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Backend state machine. A backend is "up" (routable), "down" (failed
// FailAfter consecutive probes or requests; excluded from routing until a
// probe succeeds), or "draining" (operator-excluded via squashctl;
// health checks keep running so its true state is known when undrained).
const (
	StateUp       = "up"
	StateDown     = "down"
	StateDraining = "draining"
)

// Backend is one squashd instance behind the router: its connection
// pool, health state, and traffic counters.
type Backend struct {
	Addr     string
	hashSeed uint64 // fnv64a(Addr): per-backend rendezvous seed
	pool     *serve.ClientPool

	inFlight atomic.Int64  // requests this router currently has on the wire
	requests atomic.Uint64 // completed forwards (any outcome)
	errors   atomic.Uint64 // forwards that ended in a transport error

	mu          sync.Mutex
	down        bool
	draining    bool
	consecFails int
	lastProbe   time.Time       // zero until the first health check lands
	lastStats   *serve.Snapshot // most recent successful probe's snapshot
}

func newBackend(addr string, maxIdle int) *Backend {
	return &Backend{
		Addr:     addr,
		hashSeed: fnv64a(addr),
		pool:     serve.NewClientPool(addr, maxIdle),
	}
}

// live reports whether the backend should receive new work.
func (b *Backend) live() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.down && !b.draining
}

// noteSuccess resets the failure streak and reports whether this success
// revived a down backend. Called on every successful probe and forward.
func (b *Backend) noteSuccess() (revived bool) {
	b.mu.Lock()
	revived = b.down
	b.consecFails = 0
	b.down = false
	b.mu.Unlock()
	return revived
}

// noteFailure counts a failed probe or forward toward the down threshold
// and reports whether the backend just crossed it. Request failures count
// too, so a crashed backend stops receiving traffic immediately instead of
// waiting out FailAfter probe intervals.
func (b *Backend) noteFailure(failAfter int) (wentDown bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails++
	if !b.down && b.consecFails >= failAfter {
		b.down = true
		return true
	}
	return false
}

// setDraining flips operator drain state; draining survives health-state
// transitions in both directions.
func (b *Backend) setDraining(v bool) {
	b.mu.Lock()
	b.draining = v
	b.mu.Unlock()
}

// recordProbe stores the outcome of a health check.
func (b *Backend) recordProbe(at time.Time, stats *serve.Snapshot) {
	b.mu.Lock()
	b.lastProbe = at
	if stats != nil {
		b.lastStats = stats
	}
	b.mu.Unlock()
}

// status snapshots the backend for the admin plane. now anchors the
// since-last-check age so a frozen clock in tests stays deterministic.
func (b *Backend) status(now time.Time) serve.BackendStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := serve.BackendStatus{
		Addr:          b.Addr,
		State:         StateUp,
		ConsecFails:   b.consecFails,
		InFlight:      b.inFlight.Load(),
		Requests:      b.requests.Load(),
		Errors:        b.errors.Load(),
		SinceCheckSec: -1,
		Stats:         b.lastStats,
	}
	if b.down {
		st.State = StateDown
	} else if b.draining {
		st.State = StateDraining
	}
	if !b.lastProbe.IsZero() {
		st.SinceCheckSec = now.Sub(b.lastProbe).Seconds()
	}
	return st
}

// do forwards one request on a pooled connection, bounding the exchange
// with timeout when non-zero. Transport errors close the connection
// (instead of repooling it) and are returned for the caller's failover
// logic; application errors ride inside the Response like always.
func (b *Backend) do(req *serve.Request, timeout time.Duration) (*serve.Response, error) {
	c, err := b.pool.Get()
	if err != nil {
		b.errors.Add(1)
		return nil, err
	}
	b.inFlight.Add(1)
	defer func() {
		b.inFlight.Add(-1)
		b.requests.Add(1)
	}()
	if timeout > 0 {
		c.SetDeadline(time.Now().Add(timeout))
	}
	resp, err := c.Do(req)
	if err != nil {
		b.errors.Add(1)
		c.Close()
		return nil, err
	}
	if timeout > 0 {
		c.SetDeadline(time.Time{})
	}
	b.pool.Put(c)
	return resp, nil
}

// close releases the backend's pooled connections.
func (b *Backend) close() { b.pool.Close() }
