package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
)

// TestRunAgainstRouter drives every squashctl command against a router
// fronting two backends: ping, list, drain and undrain (the JSON list shows
// the backend draining, then up again), the merged stats, and list marking
// a killed backend down. Bad commands are errors, and pointed at a plain
// squashd, which has no cluster plane, list fails naming the address it was
// given; so does an answer that carries no cluster snapshot.
func TestRunAgainstRouter(t *testing.T) {
	var backends []string
	var stops []func()
	for i := 0; i < 2; i++ {
		addr, stop := servetest.Serve(t, serve.Options{Workers: 1})
		backends = append(backends, addr)
		stops = append(stops, stop)
	}
	r, err := cluster.New(cluster.Config{
		Backends: backends, CheckInterval: 50 * time.Millisecond, CheckTimeout: time.Second,
		FailAfter: 2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(r.Stop)
	router, _ := servetest.Serve(t, serve.Options{Handler: r.Handle})

	ctl := func(asJSON bool, args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(router, asJSON, args, &out); err != nil {
			t.Fatalf("squashctl %v: %v", args, err)
		}
		return out.String()
	}
	state := func(i int) string {
		t.Helper()
		var cs serve.ClusterSnapshot
		if err := json.Unmarshal([]byte(ctl(true, "list")), &cs); err != nil || len(cs.Backends) != 2 {
			t.Fatalf("-json list: %d backends, err=%v", len(cs.Backends), err)
		}
		return cs.Backends[i].State
	}

	if out := ctl(false, "ping"); !strings.Contains(out, "router at "+router+" is up") {
		t.Errorf("ping: %q", out)
	}
	if out := ctl(false, "list"); !strings.Contains(out, backends[0]) || !strings.Contains(out, backends[1]) {
		t.Errorf("list does not name both backends:\n%s", out)
	}
	ctl(false, "drain", backends[1])
	if got := state(1); got != cluster.StateDraining {
		t.Fatalf("backend 1 after drain is %q, want %q", got, cluster.StateDraining)
	}
	ctl(false, "undrain", backends[1])
	if got := state(1); got != cluster.StateUp {
		t.Fatalf("backend 1 after undrain is %q, want %q", got, cluster.StateUp)
	}
	var merged serve.Snapshot
	if err := json.Unmarshal([]byte(ctl(false, "stats")), &merged); err != nil {
		t.Fatalf("stats: %v", err)
	}

	stops[0]()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(ctl(false, "list"), cluster.StateDown) {
		if time.Now().After(deadline) {
			t.Fatal("list never showed the killed backend down")
		}
		time.Sleep(20 * time.Millisecond)
	}

	for _, args := range [][]string{{"drain"}, {"bogus"}} {
		if err := run(router, false, args, &bytes.Buffer{}); err == nil {
			t.Errorf("squashctl %v succeeded", args)
		}
	}
	daemon, _ := servetest.Serve(t, serve.Options{Workers: 1})
	err = run(daemon, false, []string{"list"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "router at "+daemon+":") {
		t.Fatalf("list against a plain squashd: %v", err)
	}
	err = printCluster(&bytes.Buffer{}, daemon, nil)
	if err == nil || !strings.Contains(err.Error(), "is "+daemon+" a squashrouter?") {
		t.Fatalf("an answer without a cluster snapshot: %v", err)
	}
}
