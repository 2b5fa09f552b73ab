package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/objfile"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/testprog"
	"repro/internal/vm"
)

// TestRunReplay records a short stream of inline requests (a squash, a
// stats-only squash and a batch of two) through a live server, then
// replays it with squashload, inline entries carrying the same object
// from files. With -out - stdout is exactly the JSON report, with every
// request accounted for and none failed. A missing -replay and a flag of
// the deleted synthetic mode are usage errors.
func TestRunReplay(t *testing.T) {
	dir := t.TempDir()
	obj, prof, objPath, profPath := writeWorkload(t, dir)

	streamPath := filepath.Join(dir, "stream.jsonl")
	stream, err := os.Create(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	addr, _ := servetest.Serve(t, serve.Options{Workers: 2, Record: serve.NewStreamRecorder(stream)})
	cl, err := serve.DialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []*serve.Request{
		{Op: serve.OpSquash, Obj: obj, Profile: prof},
		{Op: serve.OpSquash, Obj: obj, Profile: prof, NoImage: true},
		{Op: serve.OpBatch, Items: []serve.BatchItem{{Obj: obj, Profile: prof}, {Obj: obj, Profile: prof}}},
	} {
		if resp, err := cl.Do(req); err != nil || !resp.OK {
			t.Fatalf("seed %s: err=%v resp=%+v", req.Op, err, resp)
		}
	}
	cl.Close()

	var stdout, stderr bytes.Buffer
	code := run([]string{"-connect", addr, "-replay", streamPath, "-rate", "100", "-conns", "2",
		"-fallback-obj", objPath, "-fallback-profile", profPath, "-out", "-", "-q"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var rep serve.LoadReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a load report: %v\n%s", err, stdout.String())
	}
	if rep.Requests != 3 || rep.Objects != 4 || rep.Errors != 0 || rep.Skipped != 0 || rep.Concurrency != 2 {
		t.Errorf("report %+v, want 3 requests, 4 objects, 0 errors, 0 skipped over 2 conns", rep)
	}
	if !strings.Contains(stderr.String(), "req/s=") {
		t.Errorf("the summary is not on stderr:\n%s", stderr.String())
	}

	for _, args := range [][]string{
		{"-connect", addr},
		{"-connect", addr, "-replay", streamPath, "-bench", "adpcm"},
	} {
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("squashload %v exited %d, want 2", args, code)
		}
	}
}

// writeWorkload assembles a random test program, profiles it, and returns
// the serialized object and profile and the paths it wrote them to in dir.
func writeWorkload(t *testing.T, dir string) (obj, prof []byte, objPath, profPath string) {
	t.Helper()
	o, err := asm.Assemble(testprog.Random(7))
	if err != nil {
		t.Fatal(err)
	}
	im, err := objfile.Link("main", o)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(im, []byte("squashload replay input"))
	m.EnableProfile()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var ob, pb bytes.Buffer
	if _, err := o.WriteTo(&ob); err != nil {
		t.Fatal(err)
	}
	if _, err := profile.Counts(m.Profile).WriteTo(&pb); err != nil {
		t.Fatal(err)
	}
	obj, prof = ob.Bytes(), pb.Bytes()
	objPath, profPath = filepath.Join(dir, "prog.o"), filepath.Join(dir, "prog.prof")
	for path, data := range map[string][]byte{objPath: obj, profPath: prof} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return obj, prof, objPath, profPath
}
