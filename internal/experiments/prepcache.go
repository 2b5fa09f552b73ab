package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/mediabench"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/squeeze"
	"repro/internal/vm"
)

// Preparing one benchmark — generate, assemble, squeeze, link, run the
// profiling input on the simulator — is the dominant fixed cost of every
// suite load: the experiment matrix itself only varies θ, K, and coder over
// the *same* prepared artifacts. This file caches those artifacts under a
// content key (program source + profiling input), in two layers:
//
//   - an in-memory layer, always on, so repeated suite loads in one process
//     (tests, benchmarks, the matrix CLI) prepare each benchmark once;
//   - an optional on-disk layer (LoadCachedObs / experiments -cache), so
//     repeated CLI runs skip preparation entirely when program and inputs
//     are unchanged.
//
// The payload stores the squeezed object and the profile in their existing
// serialized forms (objfile "EMO1", profile "EMP1"); cache hits and misses
// both rebuild the Bench by decoding the payload, so a hit is identical to
// a miss by construction. The key covers the benchmark content, not the
// toolchain: bump prepCacheFormat (or delete the cache directory) when the
// assembler, squeezer, linker, or profiler semantics change.

// prepCacheFormat versions both the content key and the payload encoding.
const prepCacheFormat = 1

var prepMagic = [4]byte{'E', 'M', 'C', '1'}

// prepPayload is one benchmark's cached preparation result. All fields are
// immutable after construction; Benches are decoded fresh from it per Load.
type prepPayload struct {
	inputInsts int
	stats      squeeze.Stats
	obj        []byte // squeezed object, objfile "EMO1" encoding
	prof       []byte // profiling counts, profile "EMP1" encoding
}

// prepMem is the in-memory layer: content key -> *prepPayload.
var prepMem sync.Map

// resetPrepCache drops the in-memory layer (tests only).
func resetPrepCache() {
	prepMem.Range(func(k, _ any) bool { prepMem.Delete(k); return true })
}

// prepKey hashes everything preparation consumes: the generated assembly
// source and the profiling input, plus the spec name and scaled input sizes
// (TimeBytes rides along in Bench.Spec even though preparation ignores it).
func prepKey(spec mediabench.Spec) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "emprep%d\x00%s\x00%d\x00%d\x00", prepCacheFormat, spec.Name, spec.ProfBytes, spec.TimeBytes)
	io.WriteString(h, spec.Generate())
	h.Write([]byte{0})
	h.Write(spec.ProfilingInput())
	var k [32]byte
	copy(k[:], h.Sum(nil))
	return k
}

// buildPayload runs the full preparation pipeline and serializes the
// result, with one child span per stage under sp (which may be nil).
func buildPayload(spec mediabench.Spec, sp *obs.Span) (*prepPayload, error) {
	st := sp.Child("assemble")
	obj, err := asm.Assemble(spec.Generate())
	st.End()
	if err != nil {
		return nil, err
	}
	st = sp.Child("cfg")
	p, err := cfg.Build(obj, "main")
	st.End()
	if err != nil {
		return nil, err
	}
	st = sp.Child("squeeze")
	sqStats, err := squeeze.Run(p)
	st.End()
	if err != nil {
		return nil, err
	}
	sqObj, err := cfg.Lower(p)
	if err != nil {
		return nil, err
	}
	st = sp.Child("link")
	im, err := objfile.Link("main", sqObj)
	st.End()
	if err != nil {
		return nil, err
	}
	st = sp.Child("profile")
	m := vm.New(im, spec.ProfilingInput())
	m.EnableProfile()
	err = m.Run()
	st.End()
	if err != nil {
		return nil, fmt.Errorf("profiling run: %w", err)
	}
	var objBuf, profBuf bytes.Buffer
	if _, err := sqObj.WriteTo(&objBuf); err != nil {
		return nil, err
	}
	if _, err := profile.Counts(m.Profile).WriteTo(&profBuf); err != nil {
		return nil, err
	}
	return &prepPayload{
		inputInsts: len(obj.Text),
		stats:      *sqStats,
		obj:        objBuf.Bytes(),
		prof:       profBuf.Bytes(),
	}, nil
}

// benchFromPayload decodes a payload into a fresh Bench. Both cache hits and
// misses go through here, so the two paths cannot diverge.
func benchFromPayload(spec mediabench.Spec, p *prepPayload) (*Bench, error) {
	sqObj, err := objfile.ReadObject(bytes.NewReader(p.obj))
	if err != nil {
		return nil, fmt.Errorf("cached object: %w", err)
	}
	im, err := objfile.Link("main", sqObj)
	if err != nil {
		return nil, err
	}
	counts, err := profile.ReadCounts(bytes.NewReader(p.prof))
	if err != nil {
		return nil, fmt.Errorf("cached profile: %w", err)
	}
	stats := p.stats
	return &Bench{
		Spec:         spec,
		InputInsts:   p.inputInsts,
		SqueezeStats: &stats,
		SqObj:        sqObj,
		SqImage:      im,
		Profile:      counts,
	}, nil
}

// scaleSize applies the suite's input scale to one byte count. Truncation
// must never reach zero: a benchmark with an empty profiling or timing input
// is degenerate (nothing executes the input loop), so tiny scales clamp to a
// single byte.
func scaleSize(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

// prepWarnf receives non-fatal preparation warnings (a failed disk-cache
// write). Tests swap it to capture the message.
var prepWarnf = func(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// prepareCached is prepare() behind the two cache layers. It reports whether
// the result came from a cache (memory or disk).
func prepareCached(spec mediabench.Spec, scale float64, dir string) (*Bench, bool, error) {
	return prepareCachedObs(spec, scale, dir, nil)
}

// prepareCachedObs is prepareCached with the caller's per-bench span; the
// preparation stages appear as its children on a cache miss.
func prepareCachedObs(spec mediabench.Spec, scale float64, dir string, sp *obs.Span) (*Bench, bool, error) {
	if scale != 1.0 {
		spec.ProfBytes = scaleSize(spec.ProfBytes, scale)
		spec.TimeBytes = scaleSize(spec.TimeBytes, scale)
	}
	key := prepKey(spec)
	if v, ok := prepMem.Load(key); ok {
		b, err := benchFromPayload(spec, v.(*prepPayload))
		return b, true, err
	}
	if dir != "" {
		if p, err := readPrepFile(prepFilePath(dir, key)); err == nil {
			prepMem.Store(key, p)
			b, err := benchFromPayload(spec, p)
			return b, true, err
		}
		// Unreadable or corrupt entries fall through to a recompute, which
		// rewrites the file.
	}
	p, err := buildPayload(spec, sp)
	if err != nil {
		return nil, false, err
	}
	prepMem.Store(key, p)
	if dir != "" {
		// The payload is already computed and stored in memory; a failed
		// disk write (read-only or full cache directory) only costs the
		// *next* process a recompute, so it degrades to a warning.
		if err := writePrepFile(dir, key, p); err != nil {
			prepWarnf("experiments: %s: prep cache write failed, continuing uncached: %v", spec.Name, err)
		}
	}
	b, err := benchFromPayload(spec, p)
	return b, false, err
}

// PrepareSpec prepares one named benchmark through the content-keyed cache
// layers (always-on memory, optional disk under cacheDir), for callers
// outside the suite loader — the squash daemon serves named-benchmark
// requests through it. It reports whether the preparation came from a cache.
func PrepareSpec(name string, scale float64, cacheDir string) (*Bench, bool, error) {
	spec, ok := mediabench.SpecByName(name)
	if !ok {
		return nil, false, fmt.Errorf("experiments: unknown benchmark %q", name)
	}
	return prepareCached(spec, scale, cacheDir)
}

// --- disk layer ----------------------------------------------------------

func prepFilePath(dir string, key [32]byte) string {
	return filepath.Join(dir, fmt.Sprintf("%x.prep", key))
}

// marshalPayload encodes a payload:
//
//	magic "EMC1" | inputInsts u32 | squeeze stats (8 × u32)
//	| obj len u32, obj bytes | prof len u32, prof bytes
func marshalPayload(p *prepPayload) []byte {
	var buf bytes.Buffer
	buf.Write(prepMagic[:])
	w := func(v int) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		buf.Write(b[:])
	}
	w(p.inputInsts)
	st := p.stats
	for _, v := range []int{st.InputInsts, st.OutputInsts, st.FuncsRemoved, st.BlocksRemoved,
		st.InstsUnreachable, st.NopsRemoved, st.AbstractedFuncs, st.AbstractedSavings} {
		w(v)
	}
	w(len(p.obj))
	buf.Write(p.obj)
	w(len(p.prof))
	buf.Write(p.prof)
	return buf.Bytes()
}

func unmarshalPayload(data []byte) (*prepPayload, error) {
	if len(data) < 4 || !bytes.Equal(data[:4], prepMagic[:]) {
		return nil, fmt.Errorf("prep cache: bad magic")
	}
	pos := 4
	r := func() (int, error) {
		if pos+4 > len(data) {
			return 0, fmt.Errorf("prep cache: truncated at byte %d", pos)
		}
		v := binary.LittleEndian.Uint32(data[pos:])
		pos += 4
		return int(v), nil
	}
	p := &prepPayload{}
	fields := []*int{&p.inputInsts,
		&p.stats.InputInsts, &p.stats.OutputInsts, &p.stats.FuncsRemoved, &p.stats.BlocksRemoved,
		&p.stats.InstsUnreachable, &p.stats.NopsRemoved, &p.stats.AbstractedFuncs, &p.stats.AbstractedSavings}
	for _, f := range fields {
		v, err := r()
		if err != nil {
			return nil, err
		}
		*f = v
	}
	for _, dst := range []*[]byte{&p.obj, &p.prof} {
		n, err := r()
		if err != nil {
			return nil, err
		}
		if n > len(data)-pos {
			return nil, fmt.Errorf("prep cache: declared size %d exceeds file size", n)
		}
		*dst = append([]byte(nil), data[pos:pos+n]...)
		pos += n
	}
	if pos != len(data) {
		return nil, fmt.Errorf("prep cache: %d trailing bytes", len(data)-pos)
	}
	return p, nil
}

func readPrepFile(path string) (*prepPayload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return unmarshalPayload(data)
}

// writePrepFile writes atomically (tmp + rename) so a concurrent reader
// never sees a half-written entry.
func writePrepFile(dir string, key [32]byte, p *prepPayload) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := prepFilePath(dir, key)
	tmp, err := os.CreateTemp(dir, "*.prep.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(marshalPayload(p)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
