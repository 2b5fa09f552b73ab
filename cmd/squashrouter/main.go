// Command squashrouter fronts a fleet of squashd backends with one
// daemon-protocol endpoint. It speaks the same wire protocol as squashd —
// any serve client (squashd -connect, squashload, squashctl) works against
// it unchanged — and forwards each request over pooled connections to the
// backend that owns its content hash (rendezvous hashing over the squash
// result key), so each backend's warm result cache stays hot for its share
// of the key space; batches are split per shard and reassembled in item
// order. Backends are health-checked and marked down after consecutive
// failures; failed requests reroute to the next-ranked live backend, so
// killing a backend mid-stream is invisible to clients.
//
//	squashrouter -listen tcp:127.0.0.1:7700 \
//	    -backends unix:/tmp/sq1.sock,unix:/tmp/sq2.sock,unix:/tmp/sq3.sock
//
// The admin plane (cluster snapshot, drain/undrain) answers on the main
// listener and, when -admin is set, on a second listener reserved for
// operators; cmd/squashctl is its CLI.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	listen := flag.String("listen", "", "client-facing address (unix:/path or tcp:host:port)")
	admin := flag.String("admin", "", "optional second listener for the admin plane (same protocol; squashctl)")
	backends := flag.String("backends", "", "comma-separated squashd addresses to fan out to")
	checkEvery := flag.Duration("check-interval", 2*time.Second, "health-probe period")
	checkTimeout := flag.Duration("check-timeout", time.Second, "health-probe timeout")
	failAfter := flag.Int("fail-after", 3, "consecutive failures (probes or requests) before a backend is marked down")
	retries := flag.Int("retries", 2, "extra live backends to try after a transport failure")
	backendTimeout := flag.Duration("backend-timeout", 2*time.Minute, "per-forward exchange timeout (0 = none)")
	maxIdle := flag.Int("max-idle", 4, "pooled idle connections per backend")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus), /metrics.json, and /debug/pprof on this host:port")
	flag.Parse()

	if *listen == "" || *backends == "" {
		fmt.Fprintln(os.Stderr, "usage: squashrouter -listen ADDR -backends ADDR,ADDR,...")
		os.Exit(2)
	}
	var addrs []string
	for _, a := range strings.Split(*backends, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}

	r, err := cluster.New(cluster.Config{
		Backends:       addrs,
		CheckInterval:  *checkEvery,
		CheckTimeout:   *checkTimeout,
		FailAfter:      *failAfter,
		Retries:        *retries,
		BackendTimeout: *backendTimeout,
		MaxIdle:        *maxIdle,
	})
	if err != nil {
		fail(err)
	}
	r.Start()
	defer r.Stop()

	// The front is a stock serve.Server with the squash pipeline replaced
	// by the router's Handle: listeners, the frame codec, request metrics,
	// and graceful drain all come from the daemon machinery.
	rec := &obs.Recorder{Metrics: obs.NewRegistry()}
	s := serve.NewServer(serve.Options{Handler: r.Handle, Obs: rec})

	serveDone := make(chan error, 2)
	listeners := 1
	ln, err := serve.Listen(*listen)
	if err != nil {
		fail(err)
	}
	go func() { serveDone <- s.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "squashrouter: listening on %s, %d backends\n", *listen, len(addrs))
	if *admin != "" {
		aln, err := serve.Listen(*admin)
		if err != nil {
			fail(err)
		}
		listeners++
		go func() { serveDone <- s.Serve(aln) }()
		fmt.Fprintf(os.Stderr, "squashrouter: admin plane on %s\n", *admin)
	}

	var httpSrv *http.Server
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		reg := s.Obs().Metrics
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w)
		})
		mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			reg.WriteJSON(w)
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		httpSrv = &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "squashrouter: metrics server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "squashrouter: metrics and pprof on http://%s\n", *metricsAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "squashrouter: %s, draining in-flight requests\n", got)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr := s.Shutdown(ctx)
		if httpSrv != nil {
			httpSrv.Shutdown(ctx)
		}
		for i := 0; i < listeners; i++ {
			<-serveDone
		}
		if shutdownErr != nil {
			fmt.Fprintf(os.Stderr, "squashrouter: shutdown: %v\n", shutdownErr)
			os.Exit(1)
		}
	case err := <-serveDone:
		if err != nil && err != serve.ErrServerClosed {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "squashrouter:", err)
	os.Exit(1)
}
