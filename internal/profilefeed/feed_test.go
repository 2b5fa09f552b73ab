package profilefeed

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/mediabench"
	"repro/internal/objfile"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/testprog"
	"repro/internal/vm"
)

// buildSquashed assembles a random test program, profiles it on input, and
// squashes it with that profile — the artifacts a deployment would register
// with the collector: object bytes, object-space EMP1 profile, squashed
// image bytes, and the config used.
func buildSquashed(t *testing.T, seed int64, input []byte, conf core.Config) (objBytes, profBytes, imageBytes []byte) {
	t.Helper()
	return buildSquashedSrc(t, testprog.Random(seed), input, conf)
}

// buildSquashedSrc is buildSquashed for the assembly source src.
func buildSquashedSrc(t *testing.T, src string, input []byte, conf core.Config) (objBytes, profBytes, imageBytes []byte) {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	m := vm.New(im, input)
	m.EnableProfile()
	if err := m.Run(); err != nil {
		t.Fatalf("profile run: %v", err)
	}
	var ob, pb bytes.Buffer
	if _, err := obj.WriteTo(&ob); err != nil {
		t.Fatalf("serialize object: %v", err)
	}
	if _, err := profile.Counts(m.Profile).WriteTo(&pb); err != nil {
		t.Fatalf("serialize profile: %v", err)
	}
	out, err := core.Squash(obj, m.Profile, conf)
	if err != nil {
		t.Fatalf("squash: %v", err)
	}
	var img bytes.Buffer
	if _, err := out.Image.WriteTo(&img); err != nil {
		t.Fatalf("serialize image: %v", err)
	}
	return ob.Bytes(), pb.Bytes(), img.Bytes()
}

// fleetProfile simulates one fleet member's run: execute the squashed image
// on input with profiling (what em-run -profile-push does) and return the
// EMP1 bytes in the image's address space.
func fleetProfile(t *testing.T, imageBytes, input []byte) []byte {
	t.Helper()
	_, counts, _, err := runImage(imageBytes, input, true)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	var buf bytes.Buffer
	if _, err := counts.WriteTo(&buf); err != nil {
		t.Fatalf("serialize fleet profile: %v", err)
	}
	return buf.Bytes()
}

// fakeClock is an injectable, manually-advanced clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

var (
	// steadyInput is the registration-time workload; shiftedInput exercises
	// different byte values and a different length, so the program's
	// data-dependent branches reshape the count distribution.
	steadyInput  = bytes.Repeat([]byte("abcabcabc"), 40)
	shiftedInput = bytes.Repeat([]byte{0xF7, 0x01, 0x80, 0x3c, 0xff, 0x10}, 200)
)

func newTestCollector(t *testing.T, opts Options) *Collector {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	col, err := NewCollector(opts)
	if err != nil {
		t.Fatalf("NewCollector: %v", err)
	}
	return col
}

func register(t *testing.T, col *Collector, objBytes, profBytes, imageBytes, input []byte, conf core.Config) string {
	t.Helper()
	resp := col.Handle(&serve.Request{
		Op:      serve.OpProfileRegister,
		Image:   imageBytes,
		Obj:     objBytes,
		Profile: profBytes,
		Input:   input,
		Config:  &conf,
	})
	if !resp.OK {
		t.Fatalf("register: %s", resp.Err)
	}
	if want := imageKey(imageBytes); resp.ImageKey != want {
		t.Fatalf("register returned key %s, want content key %s", resp.ImageKey, want)
	}
	return resp.ImageKey
}

func pushResp(t *testing.T, col *Collector, key string, prof, input []byte) *serve.Response {
	t.Helper()
	resp := col.Handle(&serve.Request{
		Op:       serve.OpProfilePush,
		ImageKey: key,
		Profile:  prof,
		Input:    input,
	})
	if !resp.OK {
		t.Fatalf("push: %s", resp.Err)
	}
	return resp
}

func oneImage(t *testing.T, resp *serve.Response) serve.FeedImageStatus {
	t.Helper()
	if resp.Feed == nil || len(resp.Feed.Images) != 1 {
		t.Fatalf("response carries no single-image feed: %+v", resp)
	}
	return resp.Feed.Images[0]
}

// TestCollectorLifecycle drives the whole plane in-process: register a
// squashed image, push steady-state profiles (near-zero drift), shift the
// workload (drift rises), force a re-squash (byte-identical verification,
// key rollover), and confirm stale pushes from the old image generation are
// acknowledged but not aggregated.
func TestCollectorLifecycle(t *testing.T) {
	conf := core.DefaultConfig()
	objBytes, profBytes, imageBytes := buildSquashed(t, 11, steadyInput, conf)
	clock := newFakeClock()
	col := newTestCollector(t, Options{Threshold: 10, Now: clock.Now}) // auto trigger effectively off

	key := register(t, col, objBytes, profBytes, imageBytes, steadyInput, conf)

	// Steady-state push: the fleet runs the same workload the image was
	// squashed for, so the live aggregate matches the baseline exactly.
	steadyProf := fleetProfile(t, imageBytes, steadyInput)
	clock.Advance(time.Second)
	st := oneImage(t, pushResp(t, col, key, steadyProf, steadyInput))
	if st.Drift.Score != 0 {
		t.Errorf("steady-state drift score = %v, want 0", st.Drift.Score)
	}
	if st.Samples != 1 || st.LiveWeight == 0 {
		t.Errorf("after steady push: samples=%d live=%d", st.Samples, st.LiveWeight)
	}

	// Workload shift: drift must move strictly above the steady-state score.
	shiftProf := fleetProfile(t, imageBytes, shiftedInput)
	clock.Advance(time.Second)
	st = oneImage(t, pushResp(t, col, key, shiftProf, shiftedInput))
	if st.Drift.Score <= 0 {
		t.Fatalf("drift did not move on workload shift: %+v", st.Drift)
	}
	if st.Samples != 2 {
		t.Errorf("samples = %d, want 2", st.Samples)
	}

	// Unknown keys are rejected, not silently aggregated.
	if resp := col.Handle(&serve.Request{Op: serve.OpProfilePush, ImageKey: "deadbeef", Profile: steadyProf}); resp.OK {
		t.Error("push for unknown key succeeded")
	}

	// Forced re-squash: must verify byte-identically and roll the key.
	clock.Advance(time.Second)
	resp := col.Handle(&serve.Request{Op: serve.OpProfileResquash, ImageKey: key, Force: true})
	if !resp.OK {
		t.Fatalf("forced re-squash: %s", resp.Err)
	}
	rep := resp.Resquash
	if rep == nil || !rep.OutputOK || !rep.Forced {
		t.Fatalf("re-squash report = %+v, want forced + output-identical", rep)
	}
	if len(resp.Image) == 0 {
		t.Fatal("re-squash response carries no image bytes")
	}
	if got := imageKey(resp.Image); got != rep.NewKey {
		t.Errorf("returned image hashes to %s, report says %s", got, rep.NewKey)
	}
	st = oneImage(t, resp)
	if st.CurrentKey != rep.NewKey || st.Resquashes != 1 {
		t.Errorf("after re-squash: current=%s resquashes=%d, want %s / 1", st.CurrentKey, st.Resquashes, rep.NewKey)
	}
	if st.LiveWeight != 0 {
		t.Errorf("live window not reset after re-squash: weight %d", st.LiveWeight)
	}

	// The new image must still compute the same function on fresh input.
	outNew, _, _, err := runImage(resp.Image, steadyInput, false)
	if err != nil {
		t.Fatalf("running re-squashed image: %v", err)
	}
	outOld, _, _, err := runImage(imageBytes, steadyInput, false)
	if err != nil {
		t.Fatalf("running original image: %v", err)
	}
	if !bytes.Equal(outNew, outOld) {
		t.Error("re-squashed image output differs from the original's")
	}

	// A fleet member still on the old image generation: acknowledged, told
	// the current key, but its (old-address-space) counts stay out of the
	// new window.
	if rep.NewKey != key {
		clock.Advance(time.Second)
		resp := pushResp(t, col, key, shiftProf, nil)
		if resp.ImageKey != rep.NewKey {
			t.Errorf("stale push answered with key %s, want current %s", resp.ImageKey, rep.NewKey)
		}
		if st := oneImage(t, resp); st.LiveWeight != 0 {
			t.Errorf("stale push was aggregated: live weight %d", st.LiveWeight)
		}
		// Pushing under the current key aggregates again.
		curProf := fleetProfile(t, resp.Image, shiftedInput)
		clock.Advance(time.Second)
		if st := oneImage(t, pushResp(t, col, rep.NewKey, curProf, shiftedInput)); st.LiveWeight == 0 {
			t.Error("push under the new key was not aggregated")
		}
	}
}

// TestCollectorAutoResquash exercises the automatic trigger: with a tiny
// threshold and a two-sample evidence gate, the second shifted push fires
// the re-squash on its own.
func TestCollectorAutoResquash(t *testing.T) {
	conf := core.DefaultConfig()
	objBytes, profBytes, imageBytes := buildSquashed(t, 23, steadyInput, conf)
	clock := newFakeClock()
	col := newTestCollector(t, Options{
		Threshold:  1e-9,
		MinSamples: 2,
		Cooldown:   time.Minute,
		Now:        clock.Now,
	})
	key := register(t, col, objBytes, profBytes, imageBytes, steadyInput, conf)
	shiftProf := fleetProfile(t, imageBytes, shiftedInput)

	clock.Advance(time.Second)
	if resp := pushResp(t, col, key, shiftProf, shiftedInput); resp.Resquash != nil {
		t.Fatal("auto re-squash fired before the evidence gate was met")
	}
	clock.Advance(time.Second)
	resp := pushResp(t, col, key, shiftProf, shiftedInput)
	if resp.Resquash == nil {
		t.Fatal("auto re-squash did not fire past threshold + min samples")
	}
	if !resp.Resquash.OutputOK || resp.Resquash.Forced {
		t.Fatalf("auto re-squash report = %+v", resp.Resquash)
	}
	if resp.Resquash.DriftScore <= 0 {
		t.Errorf("auto re-squash recorded drift %v, want > 0", resp.Resquash.DriftScore)
	}
}

// TestCollectorDecay checks the window half-life: a push after exactly one
// half-life halves the previous aggregate before merging.
func TestCollectorDecay(t *testing.T) {
	conf := core.DefaultConfig()
	objBytes, profBytes, imageBytes := buildSquashed(t, 37, steadyInput, conf)
	clock := newFakeClock()
	col := newTestCollector(t, Options{
		Threshold:     10,
		DecayHalfLife: time.Minute,
		Now:           clock.Now,
	})
	key := register(t, col, objBytes, profBytes, imageBytes, steadyInput, conf)
	prof := fleetProfile(t, imageBytes, steadyInput)

	clock.Advance(time.Second)
	first := oneImage(t, pushResp(t, col, key, prof, nil))
	w := first.LiveWeight
	if w == 0 {
		t.Fatal("first push aggregated no weight")
	}
	clock.Advance(time.Minute)
	second := oneImage(t, pushResp(t, col, key, prof, nil))
	// Decayed-to-half plus a fresh copy: 1.5w, give or take half-up
	// rounding of at most one count per profiled word.
	counts, err := profile.ReadCounts(bytes.NewReader(prof))
	if err != nil {
		t.Fatalf("re-read pushed profile: %v", err)
	}
	slop := uint64(len(counts))
	if want := w + w/2; second.LiveWeight+slop < want || second.LiveWeight > want+slop {
		t.Errorf("after one half-life, live weight = %d, want %d ± %d", second.LiveWeight, want, slop)
	}
}

// TestCollectorPersistence round-trips the store: everything a collector
// knows — keys, windows, counters, the re-squashed current image — must
// survive a restart from disk.
func TestCollectorPersistence(t *testing.T) {
	conf := core.DefaultConfig()
	objBytes, profBytes, imageBytes := buildSquashed(t, 53, steadyInput, conf)
	dir := t.TempDir()
	clock := newFakeClock()

	col := newTestCollector(t, Options{Dir: dir, Threshold: 10, Now: clock.Now})
	key := register(t, col, objBytes, profBytes, imageBytes, steadyInput, conf)
	shiftProf := fleetProfile(t, imageBytes, shiftedInput)
	clock.Advance(time.Second)
	before := oneImage(t, pushResp(t, col, key, shiftProf, shiftedInput))
	clock.Advance(time.Second)
	resp := col.Handle(&serve.Request{Op: serve.OpProfileResquash, ImageKey: key, Force: true})
	if !resp.OK {
		t.Fatalf("forced re-squash: %s", resp.Err)
	}
	newKey := resp.Resquash.NewKey

	// Restart: a fresh collector over the same store.
	col2 := newTestCollector(t, Options{Dir: dir, Threshold: 10, Now: clock.Now})
	sresp := col2.Handle(&serve.Request{Op: serve.OpProfileStatus, ImageKey: key})
	if !sresp.OK {
		t.Fatalf("status after reload: %s", sresp.Err)
	}
	st := oneImage(t, sresp)
	if st.Key != key || st.CurrentKey != newKey {
		t.Errorf("reloaded keys = %s/%s, want %s/%s", st.Key, st.CurrentKey, key, newKey)
	}
	if st.Samples != before.Samples || st.Resquashes != 1 {
		t.Errorf("reloaded counters: samples=%d resquashes=%d, want %d/1", st.Samples, st.Resquashes, before.Samples)
	}
	if st.Drift.BaseWeight == 0 {
		t.Error("reloaded baseline is empty")
	}

	// The reloaded collector keeps serving: pushes under the rolled key
	// aggregate, and a second forced re-squash still verifies.
	curImg := resp.Image
	curProf := fleetProfile(t, curImg, shiftedInput)
	clock.Advance(time.Second)
	if st := oneImage(t, pushResp(t, col2, newKey, curProf, shiftedInput)); st.LiveWeight == 0 {
		t.Error("push after reload was not aggregated")
	}
	clock.Advance(time.Second)
	resp2 := col2.Handle(&serve.Request{Op: serve.OpProfileResquash, ImageKey: newKey, Force: true})
	if !resp2.OK || !resp2.Resquash.OutputOK {
		t.Fatalf("re-squash after reload: ok=%v resp=%+v", resp2.OK, resp2.Resquash)
	}
}

// TestStoreTornResquash simulates a crash inside a re-squash: the new
// generation's files are on disk but entry.json is still the one written
// before that re-squash. The reloaded store must never pair an entry with
// another generation's bytes, so the torn entry is skipped. In the second
// re-squash the stale current.emx gives it away; in the first, current.emx
// is not read (the current key is still the registration key), and the
// baseline count files' sums must.
func TestStoreTornResquash(t *testing.T) {
	// On adpcm at θ=0.01, re-squashing for a slice of the timing input and
	// then for the registration input again yields three distinct image
	// generations; short input prefixes keep the runs fast.
	spec, _ := mediabench.SpecByName("adpcm")
	regInput := spec.ProfilingInput()[:25000]
	conf := core.DefaultConfig()
	conf.Theta = 0.01
	objBytes, profBytes, imageBytes := buildSquashedSrc(t, spec.Generate(), regInput, conf)
	inputs := [][]byte{spec.TimingInput()[:12500], regInput}

	for _, tc := range []struct {
		name string
		gens int
	}{{"first re-squash", 1}, {"second re-squash", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			clock := newFakeClock()
			col := newTestCollector(t, Options{Dir: dir, Threshold: 10, Now: clock.Now})
			key := register(t, col, objBytes, profBytes, imageBytes, regInput, conf)
			entryPath := filepath.Join(dir, key, entryFile)

			cur, keys := imageBytes, []string{key}
			var before []byte
			for g := 0; g < tc.gens; g++ {
				clock.Advance(time.Second)
				pushResp(t, col, keys[g], fleetProfile(t, cur, inputs[g]), inputs[g])
				var err error
				if before, err = os.ReadFile(entryPath); err != nil {
					t.Fatal(err)
				}
				clock.Advance(time.Second)
				resp := col.Handle(&serve.Request{Op: serve.OpProfileResquash, ImageKey: keys[g], Force: true})
				if !resp.OK {
					t.Fatalf("forced re-squash: %s", resp.Err)
				}
				if slices.Contains(keys, resp.Resquash.NewKey) {
					t.Fatalf("re-squash %d did not produce a new generation: %.12s", g+1, resp.Resquash.NewKey)
				}
				cur, keys = resp.Image, append(keys, resp.Resquash.NewKey)
			}
			if err := os.WriteFile(entryPath, before, 0o644); err != nil {
				t.Fatal(err)
			}

			var skipped []string
			sts, err := loadStore(dir, func(format string, args ...any) { skipped = append(skipped, fmt.Sprintf(format, args...)) })
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := sts[key]; ok || len(skipped) != 1 {
				t.Fatalf("torn entry loaded (skip notes: %q)", skipped)
			}
		})
	}
}

// TestCollectorOverServe runs the collector behind the real serve stack —
// the daemon wiring cmd/squashprofd uses — and drives it through a network
// client, covering the frame path for every profile op.
func TestCollectorOverServe(t *testing.T) {
	conf := core.DefaultConfig()
	objBytes, profBytes, imageBytes := buildSquashed(t, 71, steadyInput, conf)
	col := newTestCollector(t, Options{Threshold: 10})

	addr, _ := servetest.Serve(t, serve.Options{Handler: col.Handle, Obs: col.Obs()})
	cl, err := serve.DialClient(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	resp, err := cl.Do(&serve.Request{
		Op:      serve.OpProfileRegister,
		Image:   imageBytes,
		Obj:     objBytes,
		Profile: profBytes,
		Input:   steadyInput,
		Config:  &conf,
	})
	if err != nil {
		t.Fatalf("register over serve: %v", err)
	}
	if !resp.OK {
		t.Fatalf("register over serve: %s", resp.Err)
	}
	key := resp.ImageKey

	shiftProf := fleetProfile(t, imageBytes, shiftedInput)
	resp, err = cl.Do(&serve.Request{Op: serve.OpProfilePush, ImageKey: key, Profile: shiftProf, Input: shiftedInput})
	if err != nil {
		t.Fatalf("push over serve: %v", err)
	}
	if !resp.OK {
		t.Fatalf("push over serve: %s", resp.Err)
	}
	if st := oneImage(t, resp); st.Drift.Score <= 0 {
		t.Errorf("drift over serve = %v, want > 0", st.Drift.Score)
	}

	resp, err = cl.Do(&serve.Request{Op: serve.OpProfileResquash, ImageKey: key, Force: true})
	if err != nil {
		t.Fatalf("re-squash over serve: %v", err)
	}
	if !resp.OK || resp.Resquash == nil || !resp.Resquash.OutputOK {
		t.Fatalf("re-squash over serve: ok=%v report=%+v err=%s", resp.OK, resp.Resquash, resp.Err)
	}
	if len(resp.Image) == 0 {
		t.Error("re-squash over serve returned no image")
	}

	resp, err = cl.Do(&serve.Request{Op: serve.OpProfileStatus})
	if err != nil {
		t.Fatalf("status over serve: %v", err)
	}
	if !resp.OK || resp.Feed == nil || len(resp.Feed.Images) != 1 {
		t.Fatalf("status over serve: %+v", resp)
	}
}
