// Package daemon holds the lifecycle squashd, squashrouter and squashprofd
// share. It lives apart from package serve so that serve's users that run
// no daemon, such as the benchmark, do not link net/http.
package daemon

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// drainTimeout bounds how long a signalled daemon waits for in-flight
// requests before it force-closes their connections.
const drainTimeout = 30 * time.Second

// Run serves s on every address in addrs (one server behind several
// listeners, as the router's admin plane is) and, when metricsAddr is set,
// the metrics and pprof routes over HTTP on that host:port. It returns nil
// once SIGTERM or SIGINT has drained every in-flight request. It returns an
// error when a listener cannot open, when serving fails, or when the drain
// overruns its bound. The signal handler is installed before the first
// listener opens, so a daemon that has answered a request drains on SIGTERM.
func Run(s *serve.Server, addrs []string, metricsAddr string) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	var lns []net.Listener
	closeAll := func() {
		for _, ln := range lns {
			ln.Close()
		}
	}
	for _, addr := range addrs {
		ln, err := serve.Listen(addr)
		if err != nil {
			closeAll()
			return err
		}
		lns = append(lns, ln)
	}
	var httpSrv *http.Server
	httpDone := make(chan struct{})
	if metricsAddr != "" {
		hl, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			closeAll()
			return err
		}
		httpSrv = &http.Server{Handler: metricsMux(s.Obs().Metrics)}
		go func() {
			defer close(httpDone)
			httpSrv.Serve(hl) // returns ErrServerClosed once Shutdown below runs
		}()
		logf("metrics and pprof on http://%s", hl.Addr())
	}

	serveDone := make(chan error, len(lns))
	for i, ln := range lns {
		go func() { serveDone <- s.Serve(ln) }()
		logf("listening on %s", addrs[i])
	}
	pending := len(lns)
	var err error
	select {
	case got := <-sig:
		logf("%s, draining in-flight requests", got)
	case err = <-serveDone:
		pending--
		if err == serve.ErrServerClosed {
			err = nil
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if shutdownErr := s.Shutdown(ctx); err == nil {
		err = shutdownErr
	}
	if httpSrv != nil {
		if httpErr := httpSrv.Shutdown(ctx); err == nil {
			err = httpErr
		}
		<-httpDone
	}
	for ; pending > 0; pending-- {
		<-serveDone
	}
	return err
}

// metricsMux serves a registry in both export formats plus the standard
// pprof routes, wired explicitly: the mux is private, so the handlers
// net/http/pprof registers on http.DefaultServeMux never reach it.
func metricsMux(reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// logf prints a lifecycle line to stderr under the program's name.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, filepath.Base(os.Args[0])+": "+format+"\n", args...)
}
