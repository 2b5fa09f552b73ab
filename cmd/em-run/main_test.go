package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/mediabench"
	"repro/internal/objfile"
	"repro/internal/vm"
)

// TestWriteStatsJSON runs a squashed MediaBench image as em-run -stats-json
// does, loaded from its file, and checks the statistics document carries
// the simulator, runtime and Huffman decode sections with a real run's
// counts in them.
func TestWriteStatsJSON(t *testing.T) {
	spec, _ := mediabench.SpecByName("adpcm")
	obj, err := asm.Assemble(spec.Generate())
	if err != nil {
		t.Fatal(err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		t.Fatal(err)
	}
	pm := vm.New(im, spec.ProfilingInput())
	pm.EnableProfile()
	if err := pm.Run(); err != nil {
		t.Fatal(err)
	}
	conf := core.DefaultConfig()
	conf.Theta = 1.0
	out, err := core.Squash(obj, pm.Profile, conf)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	imgPath := filepath.Join(dir, "adpcm.sqz.exe")
	f, err := os.Create(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := out.Image.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	sq, _, err := loadBinary(imgPath)
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
	m := vm.New(sq, spec.TimingInput())
	m.EnableProfile()
	rt.Install(m)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	statsPath := filepath.Join(dir, "adpcm.stats.json")
	if err := writeStatsJSON(statsPath, m, rt); err != nil {
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
