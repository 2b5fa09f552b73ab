package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// squashedAdpcm is adpcm squashed at one θ, with the files em-run reads.
type squashedAdpcm struct {
	spec                mediabench.Spec
	conf                core.Config
	objBytes, profBytes []byte
	image               []byte
	imgPath             string
}

var (
	profileOnce sync.Once
	adpcmObj    *objfile.Object
	adpcmCounts profile.Counts
	profileErr  error
)

// buildAdpcm takes adpcm through assemble → profile (on its profiling
// input, once per test binary) → squash at theta and writes the image into
// dir.
func buildAdpcm(t *testing.T, dir string, theta float64) *squashedAdpcm {
	t.Helper()
	spec, _ := mediabench.SpecByName("adpcm")
	profileOnce.Do(func() {
		if adpcmObj, profileErr = asm.Assemble(spec.Generate()); profileErr != nil {
			return
		}
		im, err := objfile.Link("main", adpcmObj)
		if err != nil {
			profileErr = err
			return
		}
		pm := vm.New(im, spec.ProfilingInput())
		pm.EnableProfile()
		profileErr = pm.Run()
		adpcmCounts = pm.Profile
	})
	if profileErr != nil {
		t.Fatal(profileErr)
	}
	conf := core.DefaultConfig()
	conf.Theta = theta
	out, err := core.Squash(adpcmObj, adpcmCounts, conf)
	if err != nil {
		t.Fatal(err)
	}
	var ob, pb, img bytes.Buffer
	if _, err := adpcmObj.WriteTo(&ob); err != nil {
		t.Fatal(err)
	}
	if _, err := adpcmCounts.WriteTo(&pb); err != nil {
		t.Fatal(err)
	}
	if _, err := out.Image.WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	a := &squashedAdpcm{spec: spec, conf: conf, objBytes: ob.Bytes(), profBytes: pb.Bytes(),
		image: img.Bytes(), imgPath: filepath.Join(dir, "adpcm.sqz.exe")}
	writeFile(t, a.imgPath, a.image)
	return a
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// emRun runs em-run with args and returns its stdout, stderr and exit
// status.
func emRun(t *testing.T, args ...string) (stdout []byte, stderr string, status int) {
	t.Helper()
	var out, errOut bytes.Buffer
	status = run(args, strings.NewReader(""), &out, &errOut)
	return out.Bytes(), errOut.String(), status
}

// TestProfilePushWarnOnly: a push to a collector that is not there costs a
// warning on stderr, never the run. Output and exit status are those of
// the same run without the push.
func TestProfilePushWarnOnly(t *testing.T) {
	dir := t.TempDir()
	a := buildAdpcm(t, dir, 1.0)
	in := filepath.Join(dir, "adpcm.in")
	writeFile(t, in, a.spec.ProfilingInput()[:20000])

	wantOut, _, wantStatus := emRun(t, "-in", in, a.imgPath)
	dead := "unix:" + filepath.Join(dir, "no-collector.sock")
	out, stderr, status := emRun(t, "-in", in, "-profile-push", dead, a.imgPath)
	if !strings.Contains(stderr, "em-run: profile push failed:") {
		t.Errorf("no push warning on stderr: %q", stderr)
	}
	if status != wantStatus || !bytes.Equal(out, wantOut) {
		t.Fatalf("a failed push changed the run: status %d (want %d), output equal %v",
			status, wantStatus, bytes.Equal(out, wantOut))
	}
}

// TestProfilePushResquashChain drives the continuous-profiling loop
// through em-run -profile-push into a collector served the way squashprofd
// serves it: adpcm at θ=1e-4 against a 0.2 drift threshold. Pushes of the
// training workload leave drift exactly 0 and fire no re-squash. One push
// of the pathology input fires the automatic re-squash at drift ≥ 0.2,
// verified output-identical, with a rolled key. The new image lands in the
// output directory and, run by em-run, prints what the old image printed
// on the pathology input. A forced re-squash of that new generation is
// verified too, and its image also prints the same output. Both workloads
// are the first quarter of adpcm's profiling and pathology inputs: their
// weight ratio, and so the drift, stays that of the full inputs (0.47
// against 0.48), while every run, the collector's verification runs
// included, is four times shorter.
func TestProfilePushResquashChain(t *testing.T) {
	dir := t.TempDir()
	a := buildAdpcm(t, dir, 0.0001)
	trainIn, pathIn := filepath.Join(dir, "adpcm.prof.in"), filepath.Join(dir, "adpcm.path.in")
	train := a.spec.ProfilingInput()[:100000]
	writeFile(t, trainIn, train)
	writeFile(t, pathIn, a.spec.PathologyInput()[:25000])

	const threshold = 0.2
	outDir := filepath.Join(dir, "out")
	col, err := profilefeed.NewCollector(profilefeed.Options{
		Dir: filepath.Join(dir, "store"), Threshold: threshold, MinSamples: 1,
		Cooldown: time.Second, OutDir: outDir, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := servetest.Serve(t, serve.Options{Handler: col.Handle, Obs: col.Obs()})
	cl, err := serve.DialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	do := func(req *serve.Request) *serve.Response {
		t.Helper()
		resp, err := cl.Do(req)
		if err != nil || !resp.OK {
			t.Fatalf("%s: err=%v resp=%+v", req.Op, err, resp)
		}
		return resp
	}
	status := func() serve.FeedImageStatus {
		t.Helper()
		f := do(&serve.Request{Op: serve.OpProfileStatus}).Feed
		if f == nil || len(f.Images) != 1 {
			t.Fatalf("status: want one image, got %+v", f)
		}
		return f.Images[0]
	}
	push := func(in, img string) []byte {
		t.Helper()
		out, stderr, code := emRun(t, "-in", in, "-profile-push", addr, img)
		if code != 0 || strings.Contains(stderr, "push failed") {
			t.Fatalf("em-run -profile-push: status %d, stderr %q", code, stderr)
		}
		return out
	}

	key := do(&serve.Request{
		Op: serve.OpProfileRegister, Image: a.image, Obj: a.objBytes, Profile: a.profBytes,
		Input: train, Config: &a.conf,
	}).ImageKey

	push(trainIn, a.imgPath)
	if st := status(); st.Drift.Score != 0 || st.Resquashes != 0 {
		t.Fatalf("training workload: drift %v and %d re-squashes, want 0 and 0", st.Drift.Score, st.Resquashes)
	}

	oldOut := push(pathIn, a.imgPath)
	st := status()
	if st.Resquashes != 1 || st.LastResquash == nil {
		t.Fatalf("pathology workload fired %d automatic re-squashes, want 1", st.Resquashes)
	}
	if r := st.LastResquash; r.DriftScore < threshold || !r.OutputOK {
		t.Fatalf("automatic re-squash at drift %v (threshold %v), output verified %v", r.DriftScore, threshold, r.OutputOK)
	}
	if st.CurrentKey == "" || st.CurrentKey == key {
		t.Fatalf("image key did not roll: %.12s -> %.12s", key, st.CurrentKey)
	}
	newOut, stderr, code := emRun(t, "-in", pathIn, filepath.Join(outDir, st.CurrentKey+".sqz.exe"))
	if code != 0 {
		t.Fatalf("re-squashed image from the output directory: status %d: %s", code, stderr)
	}
	if !bytes.Equal(newOut, oldOut) {
		t.Fatal("re-squashed image from the output directory prints differently on the pathology input")
	}

	forced := do(&serve.Request{Op: serve.OpProfileResquash, ImageKey: st.CurrentKey, Force: true})
	if forced.Resquash == nil || !forced.Resquash.OutputOK || len(forced.Image) == 0 {
		t.Fatalf("forced re-squash of the new generation: %+v", forced.Resquash)
	}
	forcedPath := filepath.Join(dir, "forced.sqz.exe")
	writeFile(t, forcedPath, forced.Image)
	if out, stderr, code := emRun(t, "-in", pathIn, forcedPath); code != 0 || !bytes.Equal(out, oldOut) {
		t.Fatalf("forced re-squash image prints differently on the pathology input (status %d: %s)", code, stderr)
	}

}
