// Command squashctl is the operator CLI for a squashrouter cluster. It
// speaks the daemon wire protocol to the router's admin plane (either
// listener) and exposes the fleet controls:
//
//	squashctl -connect tcp:127.0.0.1:7701 list            # per-backend state table
//	squashctl -connect tcp:127.0.0.1:7701 stats           # merged fleet snapshot (JSON)
//	squashctl -connect tcp:127.0.0.1:7701 drain unix:/tmp/sq2.sock
//	squashctl -connect tcp:127.0.0.1:7701 undrain unix:/tmp/sq2.sock
//	squashctl -connect tcp:127.0.0.1:7701 ping
//
// -json switches list to the raw cluster snapshot, for scripts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/serve"
)

func main() {
	connect := flag.String("connect", "", "router address (main or -admin listener)")
	asJSON := flag.Bool("json", false, "list: print the raw cluster snapshot as JSON")
	flag.Parse()

	if *connect == "" || flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: squashctl -connect ADDR (list | stats | drain BACKEND | undrain BACKEND | ping)")
		os.Exit(2)
	}
	if err := run(*connect, *asJSON, flag.Args(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "squashctl:", err)
		os.Exit(1)
	}
}

// run sends one command (args[0], with its operand) to the router at addr
// and prints the answer to w.
func run(addr string, asJSON bool, args []string, w io.Writer) error {
	cl, err := serve.DialClient(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	do := func(req *serve.Request) (*serve.Response, error) {
		resp, err := cl.Do(req)
		if err == nil && !resp.OK {
			err = fmt.Errorf("router at %s: %s", addr, resp.Err)
		}
		return resp, err
	}

	switch cmd := args[0]; cmd {
	case "list":
		resp, err := do(&serve.Request{Op: serve.OpCluster})
		if err != nil {
			return err
		}
		if asJSON {
			return printJSON(w, resp.Cluster)
		}
		return printCluster(w, addr, resp.Cluster)

	case "stats":
		resp, err := do(&serve.Request{Op: serve.OpStats})
		if err != nil {
			return err
		}
		return printJSON(w, resp.Server)

	case "drain", "undrain":
		if len(args) != 2 {
			return fmt.Errorf("%s needs a backend address argument", cmd)
		}
		op := serve.OpDrain
		if cmd == "undrain" {
			op = serve.OpUndrain
		}
		resp, err := do(&serve.Request{Op: op, Backend: args[1]})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%sed %s\n", cmd, args[1])
		return printCluster(w, addr, resp.Cluster)

	case "ping":
		start := time.Now()
		if _, err := do(&serve.Request{Op: serve.OpPing}); err != nil {
			return err
		}
		fmt.Fprintf(w, "router at %s is up (%s)\n", addr, time.Since(start).Round(time.Microsecond))
		return nil

	default:
		return fmt.Errorf("unknown command %q (want list, stats, drain, undrain, or ping)", cmd)
	}
}

// printCluster renders the per-backend table: state, traffic, failure
// streaks, probe age, and each backend's own result-cache hit rate. A
// response without a cluster snapshot came from something other than a
// router at addr.
func printCluster(w io.Writer, addr string, cs *serve.ClusterSnapshot) error {
	if cs == nil {
		return fmt.Errorf("response carried no cluster snapshot (is %s a squashrouter?)", addr)
	}
	fmt.Fprintf(w, "%-28s %-9s %9s %9s %7s %6s %10s %9s\n",
		"BACKEND", "STATE", "REQUESTS", "ERRORS", "INFLT", "FAILS", "CHECKED", "HITRATE")
	for _, b := range cs.Backends {
		checked := "never"
		if b.SinceCheckSec >= 0 {
			checked = fmt.Sprintf("%.1fs ago", b.SinceCheckSec)
		}
		hitRate := "-"
		if s := b.Stats; s != nil {
			if total := s.SquashCacheHits + s.SquashCacheMisses; total > 0 {
				hitRate = fmt.Sprintf("%5.1f%%", 100*float64(s.SquashCacheHits)/float64(total))
			}
		}
		fmt.Fprintf(w, "%-28s %-9s %9d %9d %7d %6d %10s %9s\n",
			b.Addr, b.State, b.Requests, b.Errors, b.InFlight, b.ConsecFails, checked, hitRate)
	}
	if m := cs.Merged; m != nil {
		total := m.SquashCacheHits + m.SquashCacheMisses
		rate := 0.0
		if total > 0 {
			rate = 100 * float64(m.SquashCacheHits) / float64(total)
		}
		fmt.Fprintf(w, "merged: errors=%d timeouts=%d squash_cache=%d/%d (%.1f%% hit) prep_errors=%d\n",
			m.Errors, m.Timeouts, m.SquashCacheHits, total, rate, m.PrepErrors)
	}
	return nil
}

func printJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
