package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinySizes shrinks a run to a few seconds: small profiling inputs, short
// run inputs and a one-second budget. The programs themselves keep their
// full size.
var tinySizes = sizes{
	runBytes:    2000,
	thrashBytes: 300,
	setupReps:   2,
}

func tinyRun(t *testing.T, workload string, trace bool, corrupt string) (*result, string) {
	t.Helper()
	o := options{
		workload: workload,
		seed:     7,
		budget:   time.Second,
		trace:    trace,
		socket:   filepath.Join(t.TempDir(), "pb.sock"),
		scale:    0.02,
		sizes:    tinySizes,
		corrupt:  corrupt,
	}
	var out bytes.Buffer
	res, err := run(o, &out)
	if err != nil {
		t.Fatalf("run %s trace=%v: %v\n%s", workload, trace, err, out.String())
	}
	return res, out.String()
}

// declared reads the metric names and units BENCHMARK.json declares for
// one mode.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var defs []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[key], &defs); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, d := range defs {
		out[d.Name] = d.Unit
	}
	return out
}

// TestSmokeEmitsDeclaredMetrics runs a tiny benchmark in both modes and
// checks that the last output line is the result object and carries
// exactly the metrics BENCHMARK.json declares, each with its unit.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	for _, tc := range []struct {
		workload string
		trace    bool
		key      string
	}{
		{"thrash", false, "end_to_end"},
		{"serve", true, "per_layer"},
	} {
		res, out := tinyRun(t, tc.workload, tc.trace, "")
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
				tc.workload, tc.trace, res.Correct, res.Failed, res.Attempted, out)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
			t.Fatalf("last line has keys other than correct, attempted, failed, metrics: %s", lines[len(lines)-1])
		}
		want := declared(t, tc.key)
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: emitted %d metrics, BENCHMARK.json declares %d", tc.key, len(res.Metrics), len(want))
		}
		for name, unit := range want {
			m, ok := res.Metrics[name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s not emitted", tc.key, name)
			case m.Unit == "" || m.Unit != unit:
				t.Errorf("%s: metric %s has unit %q, want %q", tc.key, name, m.Unit, unit)
			}
		}
	}
}

// TestSmokeCountsCorruptOutput damages each kind of reference output and
// checks that the benchmark counts the mismatch as a failure.
func TestSmokeCountsCorruptOutput(t *testing.T) {
	for _, path := range []string{"squash", "run", "serve"} {
		res, out := tinyRun(t, "run", false, path)
		if res.Correct || res.Failed == 0 {
			t.Errorf("corrupt %s reference: correct=%v failed=%d\n%s", path, res.Correct, res.Failed, out)
		}
		if !strings.Contains(out, "FAIL "+path) {
			t.Errorf("corrupt %s reference: no %q failure reported\n%s", path, path, out)
		}
	}
}
