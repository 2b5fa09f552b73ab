package daemon

import (
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

// TestMetricsMuxRoutes: every daemon's metrics listener serves both export
// formats and all five pprof routes.
func TestMetricsMuxRoutes(t *testing.T) {
	mux := metricsMux(obs.NewRegistry())
	for _, route := range []string{
		"/metrics", "/metrics.json", "/debug/pprof/", "/debug/pprof/cmdline",
		"/debug/pprof/profile", "/debug/pprof/symbol", "/debug/pprof/trace",
	} {
		if _, pattern := mux.Handler(httptest.NewRequest("GET", route, nil)); pattern != route {
			t.Errorf("%s is served by pattern %q", route, pattern)
		}
	}
}

// TestRunListenError: a listener that cannot open is an error return,
// not an exit, and the listeners opened before it are closed again.
func TestRunListenError(t *testing.T) {
	dir := t.TempDir()
	good := "unix:" + filepath.Join(dir, "good.sock")
	bad := "unix:" + filepath.Join(dir, "missing", "bad.sock")
	s := serve.NewServer(serve.Options{Workers: 1, Logf: t.Logf})
	if err := Run(s, []string{good, bad}, ""); err == nil {
		t.Fatal("Run returned nil for an address it cannot listen on")
	}
	if err := Run(s, []string{good}, "256.0.0.1:0"); err == nil {
		t.Fatal("Run returned nil for a metrics address it cannot listen on")
	}
	ln, err := serve.Listen(good)
	if err != nil {
		t.Fatalf("first listener left open after the error: %v", err)
	}
	ln.Close()
}
