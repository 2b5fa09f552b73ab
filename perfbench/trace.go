package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/obs"
)

// span is one completed obs span, read back from the tracer's Chrome
// trace-event export (times in microseconds since the tracer started).
type span struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// spansOf returns the tracer's completed spans.
func spansOf(t *obs.Tracer) ([]span, error) {
	var buf bytes.Buffer
	if err := t.WriteChrome(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []span `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("reading trace: %w", err)
	}
	out := doc.TraceEvents[:0]
	for _, s := range doc.TraceEvents {
		if s.Ph == "X" {
			out = append(out, s)
		}
	}
	return out, nil
}

// stageTimes reads a tracer that recorded exactly one core.SquashObs call
// and returns, by name, the milliseconds of the stage spans on the root's
// track. The per-region encode spans run on tracks of their own and are
// covered by their stage.
func stageTimes(t *obs.Tracer) (map[string]float64, error) {
	spans, err := spansOf(t)
	if err != nil {
		return nil, err
	}
	root := -1
	for i, s := range spans {
		if s.Name == "squash" {
			if root >= 0 {
				return nil, fmt.Errorf("trace holds more than one squash span")
			}
			root = i
		}
	}
	if root < 0 {
		return nil, fmt.Errorf("trace holds no squash span")
	}
	r := spans[root]
	stages := map[string]float64{}
	for i, s := range spans {
		if i != root && s.Tid == r.Tid && s.Ts >= r.Ts && s.Ts+s.Dur <= r.Ts+r.Dur+0.01 {
			stages[s.Name] += s.Dur / 1000
		}
	}
	return stages, nil
}

// coverage records the share of a path's end-to-end time that its traced
// layers account for, and fails the run when it is below minCoverage.
func (b *bench) coverage(path string, share float64) {
	b.led.set(path+".coverage", share)
	b.chk.check(share >= minCoverage, "%s: traced layers cover %.1f%% of end-to-end time, below %.0f%%",
		path, 100*share, 100*minCoverage)
}
