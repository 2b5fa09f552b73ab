package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFiles: the trace and metrics files hold valid JSON, a nil
// recorder or empty paths write nothing, and a file that cannot be
// created is an error, not a silent skip.
func TestWriteFiles(t *testing.T) {
	dir := t.TempDir()
	rec := New()
	rec.Span("stage").End()
	rec.Counter("runs_total").Inc()
	trace, metrics := filepath.Join(dir, "trace.json"), filepath.Join(dir, "metrics.json")
	if err := rec.WriteFiles(trace, metrics); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{trace, metrics} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(data) {
			t.Errorf("%s is not valid JSON: %q", p, data)
		}
	}

	if err := (*Recorder)(nil).WriteFiles(filepath.Join(dir, "nil.json"), filepath.Join(dir, "nil-m.json")); err != nil {
		t.Errorf("nil recorder: %v", err)
	}
	if err := rec.WriteFiles("", ""); err != nil {
		t.Errorf("empty paths: %v", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Errorf("%d files in the output dir, want the 2 written first", len(entries))
	}

	missing := filepath.Join(dir, "no-such-dir", "out.json")
	if err := rec.WriteFiles(missing, ""); err == nil {
		t.Error("trace into a missing directory: no error")
	}
	if err := rec.WriteFiles("", missing); err == nil {
		t.Error("metrics into a missing directory: no error")
	}
}
