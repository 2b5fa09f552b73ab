package core

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/testprog"
	"repro/internal/vm"
)

// obsSquashDigest is squashDigest through SquashObs with an explicit
// recorder, so tests can compare the recorded and unrecorded pipelines.
func obsSquashDigest(t *testing.T, obj *objfile.Object, prof []uint64, conf Config, rec *obs.Recorder) [32]byte {
	t.Helper()
	out, err := SquashObs(obj, prof, conf, rec)
	if err != nil {
		t.Fatalf("squash: %v", err)
	}
	var buf bytes.Buffer
	if _, err := out.Image.WriteTo(&buf); err != nil {
		t.Fatalf("image serialize: %v", err)
	}
	meta, err := out.Meta.MarshalBinary()
	if err != nil {
		t.Fatalf("meta serialize: %v", err)
	}
	return digest(buf.Bytes(), meta)
}

func digest(parts ...[]byte) [32]byte {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// TestSquashTelemetryTransparent is the zero-cost-when-off guarantee at the
// pipeline level: attaching a full recorder (tracer + registry) must leave
// the squashed image and metadata byte-identical to a nil-recorder run, at
// every worker count.
func TestSquashTelemetryTransparent(t *testing.T) {
	src := testprog.Random(11)
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		t.Fatal(err)
	}
	pm := vm.New(im, []byte("telemetry telemetry"))
	pm.EnableProfile()
	if err := pm.Run(); err != nil {
		t.Fatal(err)
	}

	confs := map[string]Config{"default": DefaultConfig()}
	lz := DefaultConfig()
	lz.Coder = CoderLZ
	confs["lz"] = lz
	mtf := DefaultConfig()
	mtf.MTF = true
	mtf.Theta = 0.01
	confs["mtf"] = mtf

	for name, conf := range confs {
		conf.Workers = 1
		want := obsSquashDigest(t, obj, pm.Profile, conf, nil)
		for _, workers := range []int{1, 2, 8} {
			conf.Workers = workers
			rec := obs.New()
			if got := obsSquashDigest(t, obj, pm.Profile, conf, rec); got != want {
				t.Fatalf("%s: workers=%d: recorded squash diverged from unrecorded", name, workers)
			}
		}
	}
}

// TestSquashSpansAndMetricsRecorded checks the recorder actually observes
// the pipeline: the span tree names every stage and the registry holds the
// squash_* counters, including the per-stream breakdown.
func TestSquashSpansAndMetricsRecorded(t *testing.T) {
	src := testprog.Random(3)
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		t.Fatal(err)
	}
	pm := vm.New(im, []byte("spans spans spans"))
	pm.EnableProfile()
	if err := pm.Run(); err != nil {
		t.Fatal(err)
	}

	rec := obs.New()
	conf := DefaultConfig()
	conf.Workers = 2
	// θ=1 compresses everything compressible, so every region stage has
	// work to record.
	conf.Theta = 1.0
	if _, err := SquashObs(obj, pm.Profile, conf, rec); err != nil {
		t.Fatal(err)
	}

	sum := rec.Trace.Summary()
	for _, span := range []string{"squash", "cfg.decode", "region.select", "layout", "build.link", "seq.build", "coder.train", "region.encode", "image.finalize"} {
		if !strings.Contains(sum, span) {
			t.Errorf("trace summary missing span %q:\n%s", span, sum)
		}
	}

	snap := rec.Metrics.Snapshot()
	have := map[string]uint64{}
	for _, c := range snap.Counters {
		have[c.Name] += c.Value
	}
	for _, name := range []string{"squash_runs_total", "squash_regions_total", "squash_input_bytes_total", "squash_output_bytes_total", "squash_blob_bytes_total", "squash_stream_bits_total"} {
		if have[name] == 0 {
			t.Errorf("metric %s missing or zero after a squash", name)
		}
	}
}
