// Package servetest runs daemons in-process for tests. Start runs a
// daemon's serve-and-drain function, waits until the daemon answers, and
// stops it the way an operator does, with SIGTERM. Serve runs a bare
// serve.Server on a Unix socket, for backends and collectors a test only
// talks to. CaptureStdout captures what a daemon's client prints.
package servetest

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// Start runs run, a daemon's daemon.Run call, in the background and
// returns once the daemon at addr answers a ping. The returned stop sends
// SIGTERM and returns run's result; it runs at cleanup too, unless the test
// called it first. Only one daemon per test may be run this way: the signal
// reaches every daemon.Run in the process.
func Start(t testing.TB, addr string, run func() error) (stop func() error) {
	t.Helper()
	// The test catches SIGTERM too, so a signal that lands after run has
	// returned never takes the default action and kills the test binary.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM)
	t.Cleanup(func() { signal.Stop(sigs) })

	done := make(chan error, 1)
	go func() { done <- run() }()
	var once sync.Once
	var err error
	stop = func() error {
		once.Do(func() {
			if err = syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
				return
			}
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
				err = fmt.Errorf("daemon at %s did not drain on SIGTERM", addr)
			}
		})
		return err
	}
	t.Cleanup(func() { stop() })

	deadline := time.Now().Add(10 * time.Second)
	for !answers(addr) {
		select {
		case err := <-done:
			done <- err // for the cleanup's stop
			t.Fatalf("daemon at %s exited before answering: %v", addr, err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon at %s never answered a ping", addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return stop
}

// Serve runs a server built from opts on a fresh Unix socket and returns
// its address and a stop that drains it. Stop runs at cleanup too, unless
// the test called it first; opts.Logf defaults to the test log.
func Serve(t testing.TB, opts serve.Options) (addr string, stop func()) {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	s := serve.NewServer(opts)
	addr = "unix:" + filepath.Join(t.TempDir(), "daemon.sock")
	ln, err := serve.Listen(addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("shutdown %s: %v", addr, err)
			}
			<-done
		})
	}
	t.Cleanup(stop)
	return addr, stop
}

// answers reports whether a daemon at addr answers a ping.
func answers(addr string) bool {
	cl, err := serve.DialClient(addr)
	if err != nil {
		return false
	}
	defer cl.Close()
	resp, err := cl.Do(&serve.Request{Op: serve.OpPing})
	return err == nil && resp.OK
}

// FreeTCPAddr returns a loopback host:port that was free when asked, for a
// daemon's metrics listener.
func FreeTCPAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// CaptureStdout returns what f prints to standard output.
func CaptureStdout(t testing.TB, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		read <- data
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	f()
	w.Close()
	return string(<-read)
}
