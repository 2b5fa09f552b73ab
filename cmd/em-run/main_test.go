package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
)

// TestWriteStatsJSON runs a squashed MediaBench image as em-run -stats-json
// does, loaded from its file, and checks the statistics document carries
// the simulator, runtime and Huffman decode sections with a real run's
// counts in them.
func TestWriteStatsJSON(t *testing.T) {
	dir := t.TempDir()
	a := buildAdpcm(t, dir, 1.0)
	sq, _, err := loadBinary(a.imgPath)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := core.UnmarshalMeta(sq.Meta)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(meta)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(sq, a.spec.TimingInput())
	m.EnableProfile()
	rt.Install(m)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	statsPath := filepath.Join(dir, "adpcm.stats.json")
	if err := writeStatsJSON(statsPath, nil, m, rt); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]json.RawMessage
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("stats are not valid JSON: %v", err)
	}
	for _, key := range []string{"exit_status", "instructions", "cycles", "vm", "fast_steps", "runtime", "huffman"} {
		if _, ok := st[key]; !ok {
			t.Errorf("stats missing %q", key)
		}
	}
	var got runStats
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Instructions == 0 || got.Cycles == 0 {
		t.Errorf("stats report %d instructions, %d cycles", got.Instructions, got.Cycles)
	}
	if got.Runtime == nil || got.Runtime.Decompressions == 0 {
		t.Error("squashed run reports no decompressions")
	}
}
