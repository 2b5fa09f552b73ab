package serve

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// syncBuffer guards the recorder's writer: the server records from
// connection goroutines while the test reads the buffer afterwards.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRecordStream: a recording server captures squash/bench/batch
// arrivals with keys and nondecreasing offsets, and skips operator traffic
// (ping, stats).
func TestRecordStream(t *testing.T) {
	conf := core.DefaultConfig()
	obj, prof, _ := buildWorkload(t, 3, conf)

	var rec syncBuffer
	_, addr, stop := startServer(t, Options{Workers: 2, Record: NewStreamRecorder(&rec)})
	defer stop()
	cl, err := DialClient(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	reqs := []*Request{
		{Op: OpPing},
		{Op: OpSquash, Obj: obj, Profile: prof},
		{Op: OpBench, Bench: "no-such-benchmark", Scale: 2},
		{Op: OpBatch, Items: []BatchItem{{Obj: obj, Profile: prof}, {Bench: "adpcm"}}},
		{Op: OpStats},
	}
	for _, req := range reqs {
		if _, err := cl.Do(req); err != nil {
			t.Fatalf("op %s: %v", req.Op, err)
		}
	}

	entries, err := ReadStream(strings.NewReader(rec.String()))
	if err != nil {
		t.Fatalf("read stream: %v", err)
	}
	if len(entries) != 3 {
		t.Fatalf("recorded %d entries, want 3 (ping/stats must not record): %+v", len(entries), entries)
	}
	if entries[0].Op != OpSquash || entries[0].Key == "" || entries[0].Bytes == 0 {
		t.Errorf("squash entry missing key/bytes: %+v", entries[0])
	}
	if entries[1].Op != OpBench || entries[1].Bench != "no-such-benchmark" || entries[1].Scale != 2 {
		t.Errorf("bench entry wrong: %+v", entries[1])
	}
	if entries[2].Op != OpBatch || len(entries[2].Items) != 2 {
		t.Fatalf("batch entry wrong: %+v", entries[2])
	}
	if entries[2].Items[0].Key == "" || entries[2].Items[1].Bench != "adpcm" {
		t.Errorf("batch items wrong: %+v", entries[2].Items)
	}
	last := -1.0
	for i, e := range entries {
		if e.TMs < last {
			t.Errorf("entry %d offset %.3f before predecessor %.3f", i, e.TMs, last)
		}
		last = e.TMs
	}

	// The inline entry's key must be the content hash the result cache
	// uses, so a stream identifies repeats of the same object.
	wantKey := contentKey(obj, prof, nil)
	if entries[0].Key != wantKey {
		t.Errorf("squash entry key %q, want %q", entries[0].Key, wantKey)
	}
}

// TestReadStreamMalformed: blank lines are tolerated, malformed lines are
// loud errors.
func TestReadStreamMalformed(t *testing.T) {
	good := `{"t_ms":0,"op":"bench","bench":"adpcm"}` + "\n\n" + `{"t_ms":5,"op":"bench","bench":"gsm"}` + "\n"
	entries, err := ReadStream(strings.NewReader(good))
	if err != nil {
		t.Fatalf("blank-line stream rejected: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(entries))
	}

	if _, err := ReadStream(strings.NewReader(good + "{truncated")); err == nil {
		t.Fatal("malformed line accepted")
	}
}

// TestRecorderNil: a nil recorder is a safe no-op (the default server).
func TestRecorderNil(t *testing.T) {
	var r *StreamRecorder
	r.Record(&Request{Op: OpSquash}) // must not panic
}

// FuzzReadStream feeds arbitrary bytes to ReadStream, as squashload reads a
// recorded stream, and every entry it returns to replayRequest with no
// fallback, with a fallback payload and with a fallback benchmark. Nothing
// may panic; an entry's arrival offset must be one a replay can schedule;
// and a replayed request must carry one object per item it lists.
func FuzzReadStream(f *testing.F) {
	conf := core.DefaultConfig()
	var rec bytes.Buffer
	r := NewStreamRecorder(&rec)
	for _, req := range []*Request{
		{Op: OpSquash, Obj: []byte("obj"), Profile: []byte("prof"), Config: &conf},
		{Op: OpBench, Bench: "adpcm", Scale: 0.5, NoImage: true},
		{Op: OpBatch, Items: []BatchItem{{Obj: []byte("o"), Profile: []byte("p")}, {Bench: "gsm", Scale: 1}}},
	} {
		r.Record(req)
	}
	f.Add(rec.Bytes())
	f.Add([]byte("\n  \n{\"t_ms\":1,\"op\":\"bench\",\"bench\":\"gsm\"}\n"))
	f.Add([]byte(`{"t_ms":-5,"op":"squash"}`))
	f.Add([]byte(`{"t_ms":1e300,"op":"batch","items":[{},{"bench":"x"}]}`))
	f.Add([]byte(`{"op":"batch","items":null,"config":{"Theta":2}}`))
	f.Add([]byte(`{"op":"squash"`))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := ReadStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, e := range entries {
			if !(e.TMs >= 0 && e.TMs <= maxRecordMs) {
				t.Fatalf("accepted arrival offset %v ms", e.TMs)
			}
		}
		for _, o := range []LoadOptions{
			{},
			{FallbackObj: []byte("obj"), FallbackProfile: []byte("prof")},
			{FallbackBench: "adpcm"},
		} {
			for i := range entries {
				req, objects, ok := o.replayRequest(&entries[i])
				if !ok {
					continue
				}
				if n := max(1, len(req.Items)); n != objects {
					t.Fatalf("%s request with %d items counted as %d objects", req.Op, len(req.Items), objects)
				}
			}
		}
	})
}
