package main

import (
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
)

// TestRunAdminPlaneAndDrain starts squashrouter in-process with an admin
// listener and a metrics listener in front of two backends. Over the admin
// listener, list shows both backends up, drain and undrain move one to
// draining and back, and the front answers merged stats. The metrics
// listener serves the route set every daemon serves, and SIGTERM drains the
// router with a nil return and closes both listeners.
func TestRunAdminPlaneAndDrain(t *testing.T) {
	var backends []string
	for i := 0; i < 2; i++ {
		addr, _ := servetest.Serve(t, serve.Options{Workers: 1})
		backends = append(backends, addr)
	}
	dir := t.TempDir()
	front, admin := "unix:"+filepath.Join(dir, "front.sock"), "unix:"+filepath.Join(dir, "admin.sock")
	metricsAddr := servetest.FreeTCPAddr(t)
	stop := servetest.Start(t, front, func() error {
		return run(front, admin, cluster.Config{
			Backends: backends, CheckInterval: 50 * time.Millisecond, CheckTimeout: time.Second, Logf: t.Logf,
		}, metricsAddr)
	})

	do := func(addr string, req *serve.Request) *serve.Response {
		t.Helper()
		cl, err := serve.DialClient(addr)
		if err != nil {
			t.Fatalf("dial %s: %v", addr, err)
		}
		defer cl.Close()
		resp, err := cl.Do(req)
		if err != nil || !resp.OK {
			t.Fatalf("%s to %s: err=%v resp=%+v", req.Op, addr, err, resp)
		}
		return resp
	}
	states := func(resp *serve.Response) string {
		var s []string
		for _, b := range resp.Cluster.Backends {
			s = append(s, b.State)
		}
		return strings.Join(s, ",")
	}
	if got := states(do(admin, &serve.Request{Op: serve.OpCluster})); got != "up,up" {
		t.Fatalf("list over the admin listener: %s, want up,up", got)
	}
	if got := states(do(admin, &serve.Request{Op: serve.OpDrain, Backend: backends[1]})); got != "up,draining" {
		t.Fatalf("after drain: %s, want up,draining", got)
	}
	if got := states(do(admin, &serve.Request{Op: serve.OpUndrain, Backend: backends[1]})); got != "up,up" {
		t.Fatalf("after undrain: %s, want up,up", got)
	}
	if do(front, &serve.Request{Op: serve.OpStats}).Server == nil {
		t.Fatal("front answered stats without a snapshot")
	}

	for _, route := range []string{"/metrics", "/metrics.json", "/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		r, err := http.Get("http://" + metricsAddr + route)
		if err != nil {
			t.Fatalf("GET %s: %v", route, err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", route, r.StatusCode)
		}
		if route == "/metrics" && !strings.Contains(string(body), "squashd_requests_total") {
			t.Error("/metrics is missing the request counters")
		}
	}

	if err := stop(); err != nil {
		t.Fatalf("router did not drain cleanly on SIGTERM: %v", err)
	}
	for _, addr := range []string{front, admin} {
		if cl, err := serve.DialClient(addr); err == nil {
			cl.Close()
			t.Errorf("%s still accepts connections after the drain", addr)
		}
	}
}
