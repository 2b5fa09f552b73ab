package profilefeed

// On-disk layout: one directory per registered image under the store root,
// named by the registration key (sha256 hex of the registered image bytes).
// Small metadata lives in entry.json; blobs (object, image, profiles,
// inputs) are separate files so pushes rewrite only what changed. Every
// write goes through a temp file + rename, so a crash mid-write leaves the
// previous state intact, never a torn file.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/serve"
)

const (
	entryFile     = "entry.json"
	objFile       = "obj.emo"
	baseProfFile  = "baseprof.emp"   // object-space baseline profile
	regImageFile  = "image.emx"      // image as registered
	curImageFile  = "current.emx"    // current image (after a re-squash)
	baseCountFile = "basecounts.emp" // squashed-space baseline counts
	liveFile      = "live.emp"       // decayed live aggregate
	regInputFile  = "reginput.bin"
	lastInputFile = "lastinput.bin"
)

// entryMeta is the persisted metadata of one registered image.
type entryMeta struct {
	Key        string      `json:"key"`
	CurrentKey string      `json:"current_key"`
	Config     core.Config `json:"config"`
	// Samples counts every aggregated push since registration;
	// WindowSamples counts those since the last re-squash (the auto
	// trigger's minimum-evidence gate).
	Samples       uint64 `json:"samples"`
	WindowSamples uint64 `json:"window_samples"`
	// StalePushes counts pushes that named a superseded key (a fleet
	// member still running a pre-re-squash image); they are acknowledged
	// but not aggregated, because their counts live in the old image's
	// address space.
	StalePushes      uint64                `json:"stale_pushes,omitempty"`
	Resquashes       uint64                `json:"resquashes,omitempty"`
	LastPushUnix     int64                 `json:"last_push_unix,omitempty"`
	LastResquashUnix int64                 `json:"last_resquash_unix,omitempty"`
	LastReport       *serve.ResquashReport `json:"last_report,omitempty"`
	// BaseProfSum and BaseCountsSum are the SHA-256 of baseprof.emp and
	// basecounts.emp as last written ("" for an absent file). The count
	// files carry no key, and a crash inside a re-squash can leave the next
	// generation's baselines beside this entry.json; the sums tie each file
	// to the generation that wrote them.
	BaseProfSum   string `json:"baseprof_sha256"`
	BaseCountsSum string `json:"basecounts_sha256"`
}

// imageState is one registered image's full in-memory state. The collector
// mutex guards all of it.
type imageState struct {
	entryMeta

	obj      []byte // relocatable object bytes
	regImage []byte // image bytes as registered
	curImage []byte // current image bytes (== regImage until a re-squash)

	// baseObjProf is the object-space baseline profile (registration
	// profile, merged with replay counts on each re-squash).
	baseObjProf profile.Counts
	// baseCounts is the squashed-space baseline: the current image run on
	// its baseline input. live is the decayed aggregate of fleet pushes,
	// in the same space.
	baseCounts profile.Counts
	live       profile.Counts

	regInput  []byte
	lastInput []byte

	lastPush     time.Time
	lastResquash time.Time
}

// imageKey is the content identity an image registers under.
func imageKey(imageBytes []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(imageBytes))
}

// dir is this entry's directory under root.
func (st *imageState) dir(root string) string { return filepath.Join(root, st.Key) }

// writeFileAtomic writes data via a temp file + rename in the target's
// directory (same filesystem, so the rename is atomic). The data is synced
// before the rename, so after a power loss the name holds either the old
// bytes or all of the new ones.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, path)
}

// writeCounts persists a count vector as an EMP1 file (atomic) and returns
// the file's sum. A nil vector removes the file.
func writeCounts(path string, c profile.Counts) (string, error) {
	if c == nil {
		err := os.Remove(path)
		if os.IsNotExist(err) {
			return "", nil
		}
		return "", err
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		return "", err
	}
	return fileSum(buf.Bytes()), writeFileAtomic(path, buf.Bytes())
}

// readCountsFile loads an EMP1 file and returns it with its sum; a missing
// file is a nil vector.
func readCountsFile(path string) (profile.Counts, string, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, "", nil
	}
	if err != nil {
		return nil, "", err
	}
	c, err := profile.ReadCounts(bytes.NewReader(data))
	return c, fileSum(data), err
}

// fileSum is the SHA-256 hex of a count file's bytes.
func fileSum(data []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// saveMeta persists entry.json.
func (st *imageState) saveMeta(root string) error {
	st.LastPushUnix = unixOrZero(st.lastPush)
	st.LastResquashUnix = unixOrZero(st.lastResquash)
	data, err := json.MarshalIndent(&st.entryMeta, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(st.dir(root), entryFile), data)
}

func unixOrZero(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.Unix()
}

// saveAll persists the entire entry: blobs first, metadata last, so a crash
// between writes leaves metadata that never references missing blobs.
func (st *imageState) saveAll(root string) error {
	dir := st.dir(root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blobs := []struct {
		name string
		data []byte
	}{
		{objFile, st.obj},
		{regImageFile, st.regImage},
		{regInputFile, st.regInput},
	}
	for _, b := range blobs {
		if b.data == nil {
			continue
		}
		if err := writeFileAtomic(filepath.Join(dir, b.name), b.data); err != nil {
			return err
		}
	}
	if err := st.saveCurrent(root); err != nil {
		return err
	}
	var err error
	if st.BaseProfSum, err = writeCounts(filepath.Join(dir, baseProfFile), st.baseObjProf); err != nil {
		return err
	}
	if st.BaseCountsSum, err = writeCounts(filepath.Join(dir, baseCountFile), st.baseCounts); err != nil {
		return err
	}
	if err := st.saveWindow(root); err != nil {
		return err
	}
	return st.saveMeta(root)
}

// saveCurrent persists the current image blob — only when it diverged from
// the registered one (pre-re-squash entries have no current.emx).
func (st *imageState) saveCurrent(root string) error {
	if st.CurrentKey == st.Key {
		return nil
	}
	return writeFileAtomic(filepath.Join(st.dir(root), curImageFile), st.curImage)
}

// saveWindow persists what a push mutates: the live aggregate, the last
// input, and the metadata counters.
func (st *imageState) saveWindow(root string) error {
	dir := st.dir(root)
	if _, err := writeCounts(filepath.Join(dir, liveFile), st.live); err != nil {
		return err
	}
	if st.lastInput != nil {
		if err := writeFileAtomic(filepath.Join(dir, lastInputFile), st.lastInput); err != nil {
			return err
		}
	}
	return st.saveMeta(root)
}

// loadStore reads every persisted entry under root. Unreadable entries are
// skipped with a note through logf rather than failing the whole store: one
// corrupt directory must not take the collector down.
func loadStore(root string, logf func(string, ...any)) (map[string]*imageState, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dirs, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*imageState)
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		st, err := loadEntry(filepath.Join(root, d.Name()))
		if err != nil {
			logf("profilefeed: skipping store entry %s: %v", d.Name(), err)
			continue
		}
		out[st.Key] = st
	}
	return out, nil
}

func loadEntry(dir string) (*imageState, error) {
	st := &imageState{}
	meta, err := os.ReadFile(filepath.Join(dir, entryFile))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(meta, &st.entryMeta); err != nil {
		return nil, fmt.Errorf("bad entry.json: %w", err)
	}
	if st.Key == "" {
		return nil, fmt.Errorf("entry.json missing key")
	}
	if st.CurrentKey == "" {
		st.CurrentKey = st.Key
	}
	if st.LastPushUnix > 0 {
		st.lastPush = time.Unix(st.LastPushUnix, 0)
	}
	if st.LastResquashUnix > 0 {
		st.lastResquash = time.Unix(st.LastResquashUnix, 0)
	}
	if st.obj, err = os.ReadFile(filepath.Join(dir, objFile)); err != nil {
		return nil, err
	}
	if st.regImage, err = os.ReadFile(filepath.Join(dir, regImageFile)); err != nil {
		return nil, err
	}
	if imageKey(st.regImage) != st.Key {
		return nil, fmt.Errorf("%s does not hash to key %.12s", regImageFile, st.Key)
	}
	st.curImage = st.regImage
	if st.CurrentKey != st.Key {
		if st.curImage, err = os.ReadFile(filepath.Join(dir, curImageFile)); err != nil {
			return nil, err
		}
		// A crash inside a re-squash can leave the next generation's image
		// under this entry.json's older current key.
		if imageKey(st.curImage) != st.CurrentKey {
			return nil, fmt.Errorf("%s does not hash to current key %.12s", curImageFile, st.CurrentKey)
		}
	}
	for _, b := range []struct {
		name string
		dst  *profile.Counts
		sum  string
	}{
		{baseProfFile, &st.baseObjProf, st.BaseProfSum},
		{baseCountFile, &st.baseCounts, st.BaseCountsSum},
	} {
		var sum string
		if *b.dst, sum, err = readCountsFile(filepath.Join(dir, b.name)); err != nil {
			return nil, err
		}
		if sum != b.sum {
			return nil, fmt.Errorf("%s does not match the sha256 %s records", b.name, entryFile)
		}
	}
	if st.live, _, err = readCountsFile(filepath.Join(dir, liveFile)); err != nil {
		return nil, err
	}
	// Inputs are optional (an image can be registered without one).
	st.regInput, _ = os.ReadFile(filepath.Join(dir, regInputFile))
	st.lastInput, _ = os.ReadFile(filepath.Join(dir, lastInputFile))
	return st, nil
}
