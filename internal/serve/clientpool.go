package serve

import (
	"fmt"
	"sync"
)

// ClientPool keeps a bounded stack of idle Clients to one daemon address,
// so a router forwarding thousands of requests does not redial per
// request. A Client is
// single-goroutine, so the pool hands out exclusive ownership: Get pops an
// idle connection or dials a fresh one; Put returns a healthy connection
// for reuse. A connection that saw a transport error must be Closed by
// the caller instead of Put — the pool never inspects health itself.
type ClientPool struct {
	addr    string
	maxIdle int

	mu     sync.Mutex
	idle   []*Client
	closed bool
}

// NewClientPool builds a pool for addr. maxIdle bounds retained idle
// connections (<= 0 means 4).
func NewClientPool(addr string, maxIdle int) *ClientPool {
	if maxIdle <= 0 {
		maxIdle = 4
	}
	return &ClientPool{addr: addr, maxIdle: maxIdle}
}

// Addr reports the daemon address the pool dials.
func (p *ClientPool) Addr() string { return p.addr }

// Get returns an exclusive connection: the most recently parked idle one,
// or a freshly dialed client.
func (p *ClientPool) Get() (*Client, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("serve: client pool for %s is closed", p.addr)
	}
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	return DialClient(p.addr)
}

// Put parks a healthy connection for reuse. Beyond maxIdle — or after
// Close — the connection is closed instead.
func (p *ClientPool) Put(c *Client) {
	if c == nil {
		return
	}
	p.mu.Lock()
	if !p.closed && len(p.idle) < p.maxIdle {
		p.idle = append(p.idle, c)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	c.Close()
}

// Close closes every idle connection and makes future Gets fail.
// Connections currently checked out close via their callers.
func (p *ClientPool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}
