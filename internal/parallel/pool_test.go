package parallel

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunsEverythingSubmitted: every successful Submit runs exactly
// once, across more tasks than workers.
func TestPoolRunsEverythingSubmitted(t *testing.T) {
	p := NewPoolObs(3, nil)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		if err := p.Submit(context.Background(), func() {
			defer wg.Done()
			ran.Add(1)
		}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	wg.Wait()
	if ran.Load() != 50 {
		t.Fatalf("ran %d tasks, want 50", ran.Load())
	}
	p.Close()
}

// TestPoolBoundsConcurrency: no more than size tasks run at once.
func TestPoolBoundsConcurrency(t *testing.T) {
	const size = 2
	p := NewPoolObs(size, nil)
	defer p.Close()
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		if err := p.Submit(context.Background(), func() {
			defer wg.Done()
			n := cur.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	wg.Wait()
	if got := peak.Load(); got > size {
		t.Fatalf("peak concurrency %d exceeds pool size %d", got, size)
	}
}

// TestPoolSubmitHonorsContext: a saturated pool makes Submit block, and the
// context cancels the wait.
func TestPoolSubmitHonorsContext(t *testing.T) {
	p := NewPoolObs(1, nil)
	defer p.Close()
	block := make(chan struct{})
	if err := p.Submit(context.Background(), func() { <-block }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := p.Submit(ctx, func() {})
	if err == nil {
		t.Fatal("Submit into a saturated pool succeeded before a worker freed")
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	close(block)
}

// TestPoolCloseDrainsAndRejects: Close waits for accepted tasks and later
// Submits fail with ErrPoolClosed.
func TestPoolCloseDrainsAndRejects(t *testing.T) {
	p := NewPoolObs(2, nil)
	var finished atomic.Bool
	if err := p.Submit(context.Background(), func() {
		time.Sleep(20 * time.Millisecond)
		finished.Store(true)
	}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if !finished.Load() {
		t.Fatal("Close returned before the accepted task finished")
	}
	if err := p.Submit(context.Background(), func() {}); err != ErrPoolClosed {
		t.Fatalf("Submit after Close: %v, want ErrPoolClosed", err)
	}
	p.Close() // second Close is a no-op
}
