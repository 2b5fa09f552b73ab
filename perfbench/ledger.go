package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports; BENCHMARK.json
// declares the same names, units and bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"squash_kinsts_per_s", "kinst/s"},
	{"squash_alloc_mb_per_obj", "MB"},
	{"image_ratio", "ratio"},
	{"run_ns_per_inst", "ns"},
	{"cycles_ratio", "ratio"},
	{"serve_req_per_s", "1/s"},
	{"serve_warm_ms_p50", "ms"},
	{"serve_cold_ms_p50", "ms"},
}

// perLayer lists the metrics a --trace 1 run reports, named after the
// module whose public functions or obs spans they time.
var perLayer = []metricDef{
	// Squash pipeline, per squashed object.
	{"cfg.build_ms", "ms"},
	{"core.region_select_ms", "ms"},
	{"profile.identify_cold_ms", "ms"},
	{"unswitch.run_ms", "ms"},
	{"regions.partition_ms", "ms"},
	{"buffersafe.analyze_ms", "ms"},
	{"core.layout_ms", "ms"},
	{"core.build_link_ms", "ms"},
	{"core.seq_build_ms", "ms"},
	{"streamcomp.train_ms", "ms"},
	{"streamcomp.encode_ms", "ms"},
	{"core.finalize_ms", "ms"},
	{"objfile.write_ms", "ms"},
	{"squash.unattributed_ms", "ms"},
	{"squash.coverage", "ratio"},
	{"regions.count", "count"},
	{"profile.cold_insts", "count"},
	{"cfg.build_alloc_mb", "MB"},
	{"regions.partition_alloc_mb", "MB"},
	// Load path, VM and decompression runtime, per pass over the images.
	{"objfile.read_ms", "ms"},
	{"core.runtime_new_ms", "ms"},
	{"vm.new_ms", "ms"},
	{"vm.dispatch_s", "s"},
	{"core.runtime_enter_s", "s"},
	{"core.runtime_enter_calls", "count"},
	{"core.decompressions", "count"},
	{"core.evictions", "count"},
	{"core.bits_read", "count"},
	{"core.memo_hit_ratio", "ratio"},
	{"vm.predecodes", "count"},
	{"vm.invalidated_words", "count"},
	{"vm.fast_step_ratio", "ratio"},
	{"streamcomp.decode_region_us", "us"},
	{"run.unattributed_s", "s"},
	{"run.coverage", "ratio"},
	// Daemon, per request. The tail latencies are here, not end to end:
	// the few hundred samples a run gives them spread too far between runs
	// to bound.
	{"serve.warm_ms_p99", "ms"},
	{"serve.cold_ms_p90", "ms"},
	{"serve.key_hash_us", "us"},
	{"serve.wire_ms", "ms"},
	{"serve.request_ms_hit", "ms"},
	{"serve.request_ms_miss", "ms"},
	{"serve.squash_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.bytes_per_req", "bytes"},
	{"parallel.queue_depth_max", "count"},
	{"serve.unattributed_ms", "ms"},
	{"serve.coverage", "ratio"},
	// Set-up, and the cost of tracing the named workload.
	{"experiments.prepare_s", "s"},
	{"experiments.baseline_run_s", "s"},
	{"trace.overhead_ratio", "ratio"},
	{"calib.kernel_ms", "ms"},
}

// minCoverage is the share of end-to-end time the traced layers must
// account for; a traced run below it fails.
const minCoverage = 0.90

// ledger holds the measured values by metric name, plus report lines.
type ledger struct {
	vals  map[string]float64
	notes []string
}

func newLedger() *ledger { return &ledger{vals: map[string]float64{}} }

func (l *ledger) set(name string, v float64) { l.vals[name] = v }

func (l *ledger) note(format string, args ...any) {
	l.notes = append(l.notes, fmt.Sprintf(format, args...))
}

// checker counts attempted operations and failed ones. Safe for concurrent
// use by the serve clients.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
	perPath   map[string]int
}

// msgsPerPath bounds the failure messages kept for each path (the first
// word of the message), so that one path's flood cannot hide another's.
const msgsPerPath = 3

// check records one operation and reports ok.
func (c *checker) check(ok bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		msg := fmt.Sprintf(format, args...)
		path, _, _ := strings.Cut(msg, " ")
		if c.perPath == nil {
			c.perPath = map[string]int{}
		}
		if c.perPath[path] < msgsPerPath {
			c.perPath[path]++
			c.msgs = append(c.msgs, msg)
		}
	}
	return ok
}

func (c *checker) counts() (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

func (c *checker) messages() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.msgs...)
}

// median returns the middle value (mean of the two middle ones for an even
// count); 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile; 0 for none.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func geoMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// peakRSSMB reports the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fingerprint identifies the machine and the code a result came from.
func fingerprint(seed int64) map[string]any {
	return map[string]any{
		"commit":     commit(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"seed":       seed,
	}
}

// commit is the VCS revision stamped into the binary, or, when it was built
// outside a git work tree, a digest of the sources it measures.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	n := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		n++
		return err
	})
	if err != nil || n == 0 {
		return "unknown"
	}
	return fmt.Sprintf("src-%x", h.Sum(nil)[:8])
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
