package obs

import (
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// WriteHeapProfile writes a heap profile to path after forcing a GC, so the
// profile shows live retention rather than whatever transient garbage the
// run left behind. Every -memprofile flag funnels through here: the forced
// GC is what makes before/after profiles comparable when judging pooling
// changes, and centralizing it keeps a new command from forgetting it.
func WriteHeapProfile(path string) error {
	runtime.GC()
	return writeFile(path, pprof.WriteHeapProfile)
}

// WriteFiles exports the recorder's telemetry for the -trace and -metrics
// flags: the spans as Chrome trace-event JSON to tracePath, and the metrics
// snapshot as JSON to metricsPath ("-" for stderr). An empty path skips
// its file; a nil recorder writes nothing. It returns the first error,
// including one from Close, so a failed flush is never reported as a
// written file.
func (r *Recorder) WriteFiles(tracePath, metricsPath string) error {
	if r == nil {
		return nil
	}
	if tracePath != "" {
		if err := writeFile(tracePath, r.Trace.WriteChrome); err != nil {
			return err
		}
	}
	switch metricsPath {
	case "":
		return nil
	case "-":
		return r.Metrics.WriteJSON(os.Stderr)
	default:
		return writeFile(metricsPath, r.Metrics.WriteJSON)
	}
}

// writeFile creates path, runs write on it and closes it, returning the
// first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
