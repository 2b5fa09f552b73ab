package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/mediabench"
	"repro/internal/objfile"
	"repro/internal/profile"
	"repro/internal/profilefeed"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/vm"
)

// TestRunServerLifecycle starts squashprofd in-process with a metrics
// listener and drives it with its own client: -register prints the image
// key, -status -json reports that image, and -resquash -force -o prints
// "output identical: true" and writes the image under its new key. The
// metrics listener exports the per-image profilefeed_* families on /metrics
// and a JSON snapshot on /metrics.json, and SIGTERM drains the daemon with
// a nil return. adpcm at θ=1e-4 is profiled on a prefix of its profiling
// input and registered with a prefix of its pathology input, so the forced
// re-squash replays a workload the profile never saw and rolls the key;
// the short prefixes keep the collector's verification runs short.
func TestRunServerLifecycle(t *testing.T) {
	dir := t.TempDir()
	spec, _ := mediabench.SpecByName("adpcm")
	conf := core.DefaultConfig()
	conf.Theta = 0.0001
	files := squashFiles(t, dir, spec.Generate(), spec.ProfilingInput()[:25000], spec.PathologyInput()[:12500], conf)

	addr := "unix:" + filepath.Join(dir, "profd.sock")
	metricsAddr := servetest.FreeTCPAddr(t)
	stop := servetest.Start(t, addr, func() error {
		return runServer(addr, profilefeed.Options{
			Dir: filepath.Join(dir, "store"), Threshold: 0.2, MinSamples: 1,
			Cooldown: time.Second, Logf: t.Logf,
		}, metricsAddr)
	})
	client := func(a clientArgs) string {
		return servetest.CaptureStdout(t, func() { runClient(addr, a) })
	}

	out := client(clientArgs{register: files.image, objPath: files.obj, profPath: files.prof, inputPath: files.input, conf: conf})
	m := regexp.MustCompile(`(?m)^registered .* as ([0-9a-f]{64})$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("-register printed no key:\n%s", out)
	}
	key := m[1]

	var feed serve.FeedSnapshot
	if err := json.Unmarshal([]byte(client(clientArgs{status: true, asJSON: true})), &feed); err != nil {
		t.Fatalf("-status -json: %v", err)
	}
	if len(feed.Images) != 1 || feed.Images[0].Key != key || feed.Images[0].Threshold != 0.2 {
		t.Fatalf("-status -json: %+v", feed.Images)
	}

	resquashed := filepath.Join(dir, "resquashed.sqz.exe")
	out = client(clientArgs{resquash: key, force: true, out: resquashed})
	if !strings.Contains(out, "output identical: true") {
		t.Fatalf("forced re-squash was not verified output-identical:\n%s", out)
	}
	img, err := os.ReadFile(resquashed)
	if err != nil {
		t.Fatal(err)
	}
	newKey := fmt.Sprintf("%x", sha256.Sum256(img))
	if newKey == key || !strings.Contains(out, "-> "+newKey[:12]) {
		t.Fatalf("written image (key %.12s) is not a new generation reported by the re-squash:\n%s", newKey, out)
	}

	get := func(path string) []byte {
		t.Helper()
		r, err := http.Get("http://" + metricsAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer r.Body.Close()
		body, err := io.ReadAll(r.Body)
		if err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, r.StatusCode, err)
		}
		return body
	}
	prom := "\n" + string(get("/metrics"))
	for _, family := range []string{"profilefeed_drift_score", "profilefeed_live_weight",
		"profilefeed_samples", "profilefeed_resquashes", "profilefeed_miss_before", "profilefeed_miss_after"} {
		if !strings.Contains(prom, "\n"+family) {
			t.Errorf("/metrics is missing the %s family", family)
		}
	}
	if !json.Valid(get("/metrics.json")) {
		t.Error("/metrics.json is not valid JSON")
	}
	if err := stop(); err != nil {
		t.Fatalf("collector did not drain cleanly on SIGTERM: %v", err)
	}
}

// inputFiles are the paths a squashprofd -register reads.
type inputFiles struct{ image, obj, prof, input string }

// squashFiles assembles src, profiles it on profIn, squashes it under conf
// and writes image, object, profile and the registration input regIn into
// dir.
func squashFiles(t *testing.T, dir, src string, profIn, regIn []byte, conf core.Config) inputFiles {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		t.Fatal(err)
	}
	pm := vm.New(im, profIn)
	pm.EnableProfile()
	if err := pm.Run(); err != nil {
		t.Fatal(err)
	}
	out, err := core.Squash(obj, pm.Profile, conf)
	if err != nil {
		t.Fatal(err)
	}
	f := inputFiles{
		image: filepath.Join(dir, "prog.sqz.exe"), obj: filepath.Join(dir, "prog.o"),
		prof: filepath.Join(dir, "prog.prof"), input: filepath.Join(dir, "prog.in"),
	}
	for path, w := range map[string]io.WriterTo{f.image: out.Image, f.obj: obj, f.prof: profile.Counts(pm.Profile)} {
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(f.input, regIn, 0o644); err != nil {
		t.Fatal(err)
	}
	return f
}
