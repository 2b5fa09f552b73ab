package serve

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// RecordEntry is one line of the JSONL request stream `squashd -record`
// appends: what arrived (a content hash for inline objects, the benchmark
// key for named requests) and when (milliseconds after the first recorded
// request), enough for cmd/squashload to replay the stream against a live
// daemon at a multiple of its recorded rate. Payload bytes are deliberately
// not recorded — a production stream must stay cheap to capture — so inline
// entries replay only through a fallback payload the replayer supplies.
type RecordEntry struct {
	TMs     float64      `json:"t_ms"`
	Op      string       `json:"op"`
	Key     string       `json:"key,omitempty"`   // content hash of an inline object+profile
	Bytes   int          `json:"bytes,omitempty"` // inline payload size
	Bench   string       `json:"bench,omitempty"`
	Scale   float64      `json:"scale,omitempty"`
	NoImage bool         `json:"no_image,omitempty"` // stats-only request
	Config  *core.Config `json:"config,omitempty"`
	Items   []RecordItem `json:"items,omitempty"` // batch frames
}

// RecordItem is one object of a recorded batch frame.
type RecordItem struct {
	Key   string  `json:"key,omitempty"`
	Bench string  `json:"bench,omitempty"`
	Scale float64 `json:"scale,omitempty"`
}

// StreamRecorder appends request arrivals to a writer as JSONL. The clock
// anchors at the first recorded request, so a replay starts immediately.
// Safe for concurrent use; safe to call on a nil receiver (no-op).
type StreamRecorder struct {
	mu    sync.Mutex
	w     io.Writer
	start time.Time
}

// NewStreamRecorder records arrivals to w (typically an append-mode file).
func NewStreamRecorder(w io.Writer) *StreamRecorder { return &StreamRecorder{w: w} }

// Record appends one request arrival. Only load-bearing operations are
// recorded: stats and ping frames are operator traffic, not workload.
func (r *StreamRecorder) Record(req *Request) {
	if r == nil {
		return
	}
	switch req.Op {
	case OpSquash, OpBench, OpBatch:
	default:
		return
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.start.IsZero() {
		r.start = now
	}
	e := entryForRequest(req, now.Sub(r.start))
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	r.w.Write(append(b, '\n'))
}

func entryForRequest(req *Request, off time.Duration) *RecordEntry {
	e := &RecordEntry{
		TMs:     float64(off) / float64(time.Millisecond),
		Op:      req.Op,
		NoImage: req.NoImage,
		Config:  req.Config,
	}
	switch req.Op {
	case OpSquash:
		e.Key = contentKey(req.Obj, req.Profile, req.Config)
		e.Bytes = len(req.Obj) + len(req.Profile)
	case OpBench:
		e.Bench, e.Scale = req.Bench, req.Scale
	case OpBatch:
		e.Items = make([]RecordItem, 0, len(req.Items))
		for i := range req.Items {
			it := &req.Items[i]
			ri := RecordItem{Bench: it.Bench, Scale: it.Scale}
			if it.Bench == "" {
				ri.Key = contentKey(it.Obj, it.Profile, it.Config)
			}
			e.Items = append(e.Items, ri)
		}
	}
	return e
}

// contentKey is the short hex content hash record entries carry: enough to
// see request-mix shape (distinct objects, repeats) without the payload.
func contentKey(obj, prof []byte, config *core.Config) string {
	conf := core.DefaultConfig()
	if config != nil {
		conf = *config
	}
	k := resultKey(obj, prof, conf)
	return hex.EncodeToString(k[:8])
}

// maxRecordMs is the largest arrival offset a replay can schedule: the
// longest time.Duration, in milliseconds.
const maxRecordMs = float64(math.MaxInt64 / int64(time.Millisecond))

// ReadStream parses a recorded JSONL stream. Blank lines are skipped; a
// malformed line is an error (a truncated stream should fail loudly, not
// silently replay a prefix), and so is an arrival offset that is negative
// or past what a replay can schedule.
func ReadStream(r io.Reader) ([]RecordEntry, error) {
	var entries []RecordEntry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var e RecordEntry
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			return nil, fmt.Errorf("serve: record stream line %d: %w", line, err)
		}
		if !(e.TMs >= 0 && e.TMs <= maxRecordMs) {
			return nil, fmt.Errorf("serve: record stream line %d: arrival offset %v ms outside [0, %v]", line, e.TMs, maxRecordMs)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return entries, nil
}
