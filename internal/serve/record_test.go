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
