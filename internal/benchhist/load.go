package benchhist

// This file is the throughput half of the benchmark history: load-report
// ingestion. cmd/squashload measures a live squashd under replayed or
// synthetic load and emits a JSON report; the functions here pull the gated
// metrics out of that report, append them to BENCH_history.json next to the
// fast-path pair ratios, and enforce per-metric floors and ceilings so a
// service-level regression (req/s collapse, p99 blow-up, requests erroring)
// trips CI the same way a lost microbenchmark speedup does.

import (
	"encoding/json"
	"fmt"
	"strings"
)

// LoadGate bounds one metric of a squashload report. Field is the dotted
// JSON path into the report ("req_per_sec", "latency_ms.p99"); HasMin/
// HasMax say which bounds apply — zero is a legitimate bound (the error
// ceiling), so presence is explicit rather than sentinel-valued.
type LoadGate struct {
	Name   string // history entry name, e.g. "load-req-s"
	Field  string // dotted path into the report JSON
	Unit   string
	Min    float64
	HasMin bool
	Max    float64
	HasMax bool
}

// DefaultLoadGates covers the load-smoke CI job: a replay of a recorded
// warm-daemon stream. Floors and ceilings are deliberately loose — CI
// runners are noisy and the smoke stream is short — but tight enough that
// a collapsed cache (every request recomputing), a stalled worker pool, or
// failing requests cannot pass.
func DefaultLoadGates() []LoadGate {
	return []LoadGate{
		// The smoke replays its stream at 2x recorded rate; a healthy warm
		// daemon tracks the offered rate. Measured ~20-40 req/s locally.
		{Name: "load-req-s", Field: "req_per_sec", Unit: "req/s", Min: 3, HasMin: true},
		// Warm-cache responses are single-digit ms; the first misses run
		// the full pipeline. Ceilings catch order-of-magnitude blow-ups,
		// not jitter. Measured p50 ~1ms, p99 ~50ms locally.
		{Name: "load-p50-ms", Field: "latency_ms.p50", Unit: "ms", Max: 2000, HasMax: true},
		{Name: "load-p99-ms", Field: "latency_ms.p99", Unit: "ms", Max: 10000, HasMax: true},
		// Replaying a recorded stream re-requests content the daemon has
		// seen; the warm caches must absorb most of it.
		{Name: "load-cache-hit", Field: "cache_hit_rate", Unit: "rate", Min: 0.2, HasMin: true},
		// No request of the replay may fail.
		{Name: "load-errors", Field: "errors", Unit: "count", Max: 0, HasMax: true},
		// Wire throughput across the load connections. Recorded without
		// bounds: the value tracks codec efficiency per commit (binary
		// payload sections avoid base64's ~33% inflation), but absolute
		// B/s on a shared CI runner is too noisy to gate.
		{Name: "load-bytes-in-s", Field: "bytes_in_per_sec", Unit: "B/s"},
		{Name: "load-bytes-out-s", Field: "bytes_out_per_sec", Unit: "B/s"},
	}
}

// LoadEntries extracts each gate's metric from a squashload JSON report as
// history entries. A gated field missing from the report is an error: a
// silently absent metric would make every future regression invisible.
func LoadEntries(report []byte, gates []LoadGate, commit, date string) ([]Entry, error) {
	var doc map[string]any
	if err := json.Unmarshal(report, &doc); err != nil {
		return nil, fmt.Errorf("benchhist: load report: %w", err)
	}
	var entries []Entry
	for _, g := range gates {
		v, err := lookupField(doc, g.Field)
		if err != nil {
			return nil, fmt.Errorf("benchhist: load report: %w", err)
		}
		entries = append(entries, Entry{
			Commit:    commit,
			Date:      date,
			Benchmark: g.Name,
			Value:     v,
			Unit:      g.Unit,
		})
	}
	return entries, nil
}

// lookupField walks a dotted path through nested JSON objects to a number.
func lookupField(doc map[string]any, path string) (float64, error) {
	cur := any(doc)
	for _, part := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, fmt.Errorf("field %q: %q is not an object", path, part)
		}
		cur, ok = m[part]
		if !ok {
			return 0, fmt.Errorf("field %q missing from report", path)
		}
	}
	v, ok := cur.(float64)
	if !ok {
		return 0, fmt.Errorf("field %q is not a number", path)
	}
	return v, nil
}

// CheckLoad enforces each gate's bounds over freshly extracted entries.
func CheckLoad(entries []Entry, gates []LoadGate) error {
	byName := map[string]LoadGate{}
	for _, g := range gates {
		byName[g.Name] = g
	}
	var fails []string
	for _, e := range entries {
		g, ok := byName[e.Benchmark]
		if !ok {
			continue
		}
		if g.HasMin && e.Value < g.Min {
			fails = append(fails, fmt.Sprintf("%s: %.2f %s below floor %.2f", e.Benchmark, e.Value, g.Unit, g.Min))
		}
		if g.HasMax && e.Value > g.Max {
			fails = append(fails, fmt.Sprintf("%s: %.2f %s above ceiling %.2f", e.Benchmark, e.Value, g.Unit, g.Max))
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("benchhist: load regression:\n  %s", strings.Join(fails, "\n  "))
	}
	return nil
}
