// Package serve implements the squash daemon: a long-lived process that
// accepts squash requests over a Unix or TCP socket and answers each with
// the squashed image plus its statistics — the paper's compressor as a
// service instead of a one-shot CLI. The point of staying resident is warm
// state: trained per-config squash results are cached under a content hash
// (object + profile + config), and named-benchmark requests reuse the
// experiments preparation cache, so repeated requests skip the dominant
// fixed costs. The daemon is byte-compatible with cmd/squash: for the same
// object, profile, and configuration, the returned image is identical to
// the one-shot tool's output file, at any request concurrency.
//
// Wire protocol: one framing, described in frame.go. Each frame is a fixed
// 12-byte binary header, a small JSON envelope for the scalar fields, and
// a raw payload trailer that carries every []byte field as an (offset,
// length) section, so payloads cross the wire without base64. A
// connection carries any number of request/response pairs in sequence;
// concurrency comes from opening multiple connections. Every byte a peer
// sends is validated before use, and any framing violation is fatal to
// the connection: the server answers with one error frame and closes.
package serve

import (
	"net"
	"strings"

	"repro/internal/core"
	"repro/internal/profile"
)

// MaxFrame bounds one frame's envelope plus payload trailer. Squashed
// mediabench images are a few hundred KB; 64 MB leaves room for far larger
// programs while keeping a garbage length field from allocating unbounded
// memory.
const MaxFrame = 64 << 20

// Request operations.
const (
	// OpSquash compresses an inline object with an inline profile.
	OpSquash = "squash"
	// OpBench prepares a named mediabench benchmark through the experiments
	// prep cache, then squashes it.
	OpBench = "bench"
	// OpBatch carries many objects in one frame. Each item is squashed
	// exactly as a one-shot OpSquash/OpBench request would be — responses
	// are byte-identical per object — but fixed costs amortize across the
	// frame: duplicate items are squashed once (codebooks trained once),
	// named-benchmark items share preparation, and the frame codec runs
	// once per batch instead of once per object.
	OpBatch = "batch"
	// OpStats reports the server's counters and latency percentiles.
	OpStats = "stats"
	// OpPing checks liveness.
	OpPing = "ping"

	// Cluster admin operations, answered only by the router tier
	// (cmd/squashrouter); a plain squashd rejects them as unknown ops.
	// OpCluster reports every backend's state plus the merged snapshot.
	OpCluster = "cluster"
	// OpDrain marks the backend named by Request.Backend as draining: it
	// receives no new requests but keeps its health checks. OpUndrain
	// reverses it.
	OpDrain   = "drain"
	OpUndrain = "undrain"

	// Profile-plane operations, answered only by the profile collector
	// (cmd/squashprofd); a plain squashd rejects them as unknown ops.
	// OpProfileRegister enrolls a squashed image with the collector: the
	// image bytes (keyed by their sha256), the object and baseline profile
	// it was squashed from, the squash config, and a representative input
	// for baseline and verification runs.
	OpProfileRegister = "profile-register"
	// OpProfilePush ships one run's execution profile from an em-run fleet
	// member: the image key, the EMP1 counts, run metadata, and (capped)
	// the input bytes that drove the run.
	OpProfilePush = "profile-push"
	// OpProfileStatus reports the collector's per-image aggregation state
	// (drift scores, sample counts, staleness) as a FeedSnapshot.
	OpProfileStatus = "profile-status"
	// OpProfileResquash forces a re-squash of the image named by ImageKey
	// with the live merged profile, regardless of the drift threshold.
	OpProfileResquash = "profile-resquash"
)

// knownOps is the op vocabulary. Envelope decode interns these spellings,
// and the request metrics count any other spelling under one label.
var knownOps = [...]string{
	OpSquash, OpBench, OpBatch, OpStats, OpPing,
	OpCluster, OpDrain, OpUndrain,
	OpProfileRegister, OpProfilePush, OpProfileStatus, OpProfileResquash,
}

// MaxBatchItems bounds one OpBatch frame's object count. The ceiling keeps
// a single frame's response under MaxFrame for realistic image sizes and
// bounds the per-frame fan-out inside the server.
const MaxBatchItems = 256

// Request is one client frame.
type Request struct {
	Op string `json:"op"`

	// OpSquash: the relocatable object (objfile "EMO1" bytes), its profile
	// (profile "EMP1" bytes), and the squash configuration (nil means
	// core.DefaultConfig()).
	Obj     []byte       `json:"obj,omitempty"`
	Profile []byte       `json:"profile,omitempty"`
	Config  *core.Config `json:"config,omitempty"`

	// OpBench: a mediabench benchmark name and input scale (0 means 1.0).
	// Config applies as for OpSquash.
	Bench string  `json:"bench,omitempty"`
	Scale float64 `json:"scale,omitempty"`

	// NoImage asks the server to omit image bytes from the response (and
	// from every batch result). Stats, footprints, and cache flags are
	// unaffected, and the squash still runs and warms the result cache —
	// only the wire bytes are skipped. Load tests and re-squash probes
	// that never look at the image use this to take payload transfer out
	// of the measurement.
	NoImage bool `json:"no_image,omitempty"`

	// OpBatch: the objects of this frame, at most MaxBatchItems.
	Items []BatchItem `json:"items,omitempty"`

	// Backend names the target backend address for the router admin ops
	// OpDrain and OpUndrain.
	Backend string `json:"backend,omitempty"`

	// Profile-plane fields (cmd/squashprofd). Image carries the squashed
	// executable bytes on OpProfileRegister; Input carries run input bytes
	// on register (verification input) and push (the live workload). Both
	// travel as payload sections. ImageKey names the registered image
	// (sha256 hex of its bytes) on push/status/resquash; Run carries one
	// run's metadata on push; Force on OpProfileResquash re-squashes even
	// below the drift threshold.
	Image    []byte   `json:"image,omitempty"`
	Input    []byte   `json:"input,omitempty"`
	ImageKey string   `json:"image_key,omitempty"`
	Run      *RunMeta `json:"run,omitempty"`
	Force    bool     `json:"force,omitempty"`

	// fb is the pooled frame buffer this request's payload slices alias
	// (nil for requests built in-process). The dispatch path releases it
	// once the request can no longer be read.
	fb *frameBuf
}

// RunMeta is one fleet run's metadata, shipped alongside its profile on
// OpProfilePush. The counter fields mirror core.RuntimeStats.
type RunMeta struct {
	// Instructions and Cycles are the run's dynamic totals.
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles,omitempty"`
	ExitStatus   int32  `json:"exit_status,omitempty"`
	// Decompressions, Evictions, and BitsRead are the decompression
	// runtime's counters (zero for runs of unsquashed binaries).
	Decompressions uint64 `json:"decompressions,omitempty"`
	Evictions      uint64 `json:"evictions,omitempty"`
	BitsRead       uint64 `json:"bits_read,omitempty"`
	// Source labels the pushing fleet member (free-form; host, pod, …).
	Source string `json:"source,omitempty"`
}

// releasePayload recycles the frame buffer backing Obj, Profile, and the
// batch item payloads. Call only when no reference to those slices can
// still be read — i.e. after process() returns, not when a timed-out
// response is sent. Idempotent; a no-op for requests without a frame
// buffer.
func (r *Request) releasePayload() {
	r.fb.release()
}

// BatchItem is one object inside an OpBatch frame. Either Bench names a
// mediabench benchmark prepared server-side (Scale 0 means 1.0), or Obj and
// Profile carry the payload inline, exactly as the corresponding one-shot
// op would. A nil Config means core.DefaultConfig(). When both Bench and
// Obj are set, Bench wins.
type BatchItem struct {
	Obj     []byte       `json:"obj,omitempty"`
	Profile []byte       `json:"profile,omitempty"`
	Bench   string       `json:"bench,omitempty"`
	Scale   float64      `json:"scale,omitempty"`
	Config  *core.Config `json:"config,omitempty"`
}

// BatchResult is the per-object outcome of an OpBatch frame, in item
// order. Errors are isolated here: one malformed object fails only its own
// result, never its siblings or the frame.
type BatchResult struct {
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`

	Image []byte          `json:"image,omitempty"`
	Stats *core.Stats     `json:"stats,omitempty"`
	Foot  *core.Footprint `json:"foot,omitempty"`

	// Cached and PrepCached mirror the one-shot Response flags. Shared
	// marks a within-batch duplicate: an earlier identical item trained
	// the codebooks and this result reuses its bytes.
	Cached     bool `json:"cached,omitempty"`
	PrepCached bool `json:"prep_cached,omitempty"`
	Shared     bool `json:"shared,omitempty"`
}

// Response is one server frame.
type Response struct {
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`

	// Squash results: the linked executable image ("EMX1" bytes, identical
	// to cmd/squash's output file) and the run's statistics.
	Image []byte          `json:"image,omitempty"`
	Stats *core.Stats     `json:"stats,omitempty"`
	Foot  *core.Footprint `json:"foot,omitempty"`
	// Cached reports a warm squash-result cache hit; PrepCached reports a
	// warm preparation (OpBench only).
	Cached     bool `json:"cached,omitempty"`
	PrepCached bool `json:"prep_cached,omitempty"`

	// Results carries the OpBatch outcomes, one per request item in item
	// order. The frame-level OK reports whether the batch executed; each
	// item's success is its own result's OK.
	Results []BatchResult `json:"results,omitempty"`

	// Server carries the OpStats snapshot.
	Server *Snapshot `json:"server,omitempty"`

	// Cluster carries the OpCluster answer from a router.
	Cluster *ClusterSnapshot `json:"cluster,omitempty"`

	// Feed carries the profile collector's answer to OpProfileStatus (all
	// images) and OpProfilePush/OpProfileRegister (the affected image).
	Feed *FeedSnapshot `json:"feed,omitempty"`

	// Resquash carries the OpProfileResquash outcome; the re-squashed
	// image's bytes travel in Image.
	Resquash *ResquashReport `json:"resquash,omitempty"`

	// ImageKey echoes the registered image's content key on
	// OpProfileRegister.
	ImageKey string `json:"image_key,omitempty"`
}

// FeedImageStatus is one registered image's aggregation state in the
// profile collector.
type FeedImageStatus struct {
	// Key is the registration key (sha256 hex of the registered image
	// bytes). CurrentKey is the key of the image currently considered
	// live — it diverges from Key after a re-squash.
	Key        string `json:"key"`
	CurrentKey string `json:"current_key,omitempty"`
	Bench      string `json:"bench,omitempty"`

	// Samples counts pushes aggregated into the live window since
	// registration (re-squashes reset the window, not this counter).
	Samples uint64 `json:"samples"`
	// BaseWeight and LiveWeight are the dynamic instruction totals of the
	// baseline profile and the decayed live aggregate.
	BaseWeight uint64 `json:"base_weight"`
	LiveWeight uint64 `json:"live_weight"`
	// StalenessSec is the age of the newest aggregated push; negative
	// means no push has arrived yet.
	StalenessSec float64 `json:"staleness_sec"`

	// Theta is the cold-code threshold the image was squashed with; Drift
	// measures the live aggregate against the baseline over that
	// partition; Threshold is the score that triggers a re-squash.
	Theta     float64            `json:"theta"`
	Drift     profile.DriftStats `json:"drift"`
	Threshold float64            `json:"threshold"`

	// Resquashes counts completed re-squashes; LastResquash is the most
	// recent one's report (nil before the first).
	Resquashes   uint64          `json:"resquashes,omitempty"`
	LastResquash *ResquashReport `json:"last_resquash,omitempty"`
}

// FeedSnapshot is the profile collector's OpProfileStatus answer.
type FeedSnapshot struct {
	Images []FeedImageStatus `json:"images"`
}

// ResquashReport describes one completed re-squash: the adaptive loop's
// before/after evidence.
type ResquashReport struct {
	// NewKey is the sha256 hex of the re-squashed image; ImagePath is
	// where the collector persisted it.
	NewKey    string `json:"new_key"`
	ImagePath string `json:"image_path,omitempty"`
	// DriftScore is the drift that triggered (or was observed at) the
	// re-squash; Forced marks an operator-forced run below the threshold.
	DriftScore float64 `json:"drift_score"`
	Forced     bool    `json:"forced,omitempty"`
	// OutputOK reports that old and new image produced byte-identical
	// output on the verification input.
	OutputOK bool `json:"output_ok"`
	// MissBefore/MissAfter are buffer-miss rates (decompressions per
	// dynamic instruction) of old vs new image on the drifted input;
	// EvictBefore/EvictAfter the corresponding eviction counts.
	MissBefore  float64 `json:"miss_before"`
	MissAfter   float64 `json:"miss_after"`
	EvictBefore uint64  `json:"evict_before"`
	EvictAfter  uint64  `json:"evict_after"`
	// UnixSec is the completion time.
	UnixSec int64 `json:"unix_sec,omitempty"`
}

// BackendStatus is one backend's view in a ClusterSnapshot.
type BackendStatus struct {
	Addr  string `json:"addr"`
	State string `json:"state"` // "up", "down", or "draining"
	// ConsecFails is the current consecutive-failure streak (health
	// probes and request transport errors both count); it resets on any
	// success.
	ConsecFails int   `json:"consec_fails,omitempty"`
	InFlight    int64 `json:"in_flight"`
	// Requests and Errors count what the router sent this backend.
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors,omitempty"`
	// SinceCheckSec is the age of the last successful health probe;
	// negative means no probe has succeeded yet.
	SinceCheckSec float64 `json:"since_check_sec"`
	// Stats is the backend's own snapshot from its last successful health
	// probe (nil before the first one).
	Stats *Snapshot `json:"stats,omitempty"`
}

// ClusterSnapshot is the router's OpCluster answer: per-backend status
// plus the merged per-backend snapshots.
type ClusterSnapshot struct {
	Backends []BackendStatus `json:"backends"`
	// Merged aggregates the per-backend stats (MergeSnapshots of the
	// latest probe snapshots).
	Merged *Snapshot `json:"merged,omitempty"`
}

// setNoDelay disables Nagle on TCP connections (no-op otherwise).
func setNoDelay(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
}

// SplitAddr resolves an address spec into (network, address) for net.Dial /
// net.Listen.
func SplitAddr(addr string) (string, string) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return "unix", strings.TrimPrefix(addr, "unix:")
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", strings.TrimPrefix(addr, "tcp:")
	default:
		return "tcp", addr
	}
}
