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
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/serve/daemon"
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

	err := run(*listen, *admin, cluster.Config{
		Backends:       addrs,
		CheckInterval:  *checkEvery,
		CheckTimeout:   *checkTimeout,
		FailAfter:      *failAfter,
		Retries:        *retries,
		BackendTimeout: *backendTimeout,
		MaxIdle:        *maxIdle,
	}, *metricsAddr)
	if err != nil {
		fail(err)
	}
}

// run fronts cfg's backends on listen (and on admin, when set) until
// SIGTERM has drained the front.
func run(listen, admin string, cfg cluster.Config, metricsAddr string) error {
	r, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	r.Start()
	defer r.Stop()

	// The front is a stock serve.Server with the squash pipeline replaced
	// by the router's Handle: listeners, the frame codec, request metrics,
	// and graceful drain all come from the daemon machinery.
	addrs := []string{listen}
	if admin != "" {
		addrs = append(addrs, admin)
	}
	fmt.Fprintf(os.Stderr, "squashrouter: %d backends\n", len(cfg.Backends))
	return daemon.Run(serve.NewServer(serve.Options{Handler: r.Handle}), addrs, metricsAddr)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "squashrouter:", err)
	os.Exit(1)
}
