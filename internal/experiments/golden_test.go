package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/race"
	"repro/internal/regions"
)

var updateDigests = flag.Bool("update-digests", false,
	"rewrite testdata/image_digests.txt from the current pipeline")

const digestsFile = "testdata/image_digests.txt"

// digestConfigs are the squash configurations whose outputs the golden
// digests pin: the default operating point and one variation per option
// that changes what the rewriter or the coders emit.
func digestConfigs() []struct {
	name string
	conf core.Config
} {
	base := func(theta float64, edit func(*core.Config)) core.Config {
		c := core.DefaultConfig()
		c.Theta = theta
		if edit != nil {
			edit(&c)
		}
		return c
	}
	return []struct {
		name string
		conf core.Config
	}{
		{"theta5e-5", base(5e-5, nil)},
		{"theta1e-3", base(1e-3, nil)},
		{"lz", base(5e-5, func(c *core.Config) { c.Coder = core.CoderLZ })},
		{"mtf", base(5e-5, func(c *core.Config) { c.MTF = true })},
		{"interpret", base(5e-5, func(c *core.Config) { c.Interpret = true })},
		{"lz-interpret", base(5e-5, func(c *core.Config) { c.Coder, c.Interpret = core.CoderLZ, true })},
		{"loopaware", base(5e-5, func(c *core.Config) { c.Regions.Strategy = regions.StrategyLoopAware })},
		{"ctstubs", base(5e-5, func(c *core.Config) { c.CompileTimeRestoreStubs = true })},
		{"nobufsafe", base(5e-5, func(c *core.Config) { c.BufferSafe = false })},
		{"mtf-theta1e-3", base(1e-3, func(c *core.Config) { c.MTF = true })},
	}
}

// outputDigest hashes everything a squash hands on: the image, the
// metadata bytes, Stats and Footprint.
func outputDigest(out *core.Output) (string, error) {
	h := sha256.New()
	if _, err := out.Image.WriteTo(h); err != nil {
		return "", err
	}
	meta, err := out.Meta.MarshalBinary()
	if err != nil {
		return "", err
	}
	h.Write(meta)
	fmt.Fprintf(h, "%+v\n%+v\n", out.Stats, out.Foot)
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// TestImageDigestsGolden squashes every quick-suite program in each digest
// configuration, serially and on four workers, and compares the outputs'
// digests with testdata/image_digests.txt. A rewrite of the squash path
// that should leave its output alone must leave every line as it is;
// `go test -run TestImageDigestsGolden -update-digests` regenerates the
// file when a change to the output is intended.
func TestImageDigestsGolden(t *testing.T) {
	if race.Enabled {
		t.Skip("~5 s of squashes; the race detector makes it minutes")
	}
	s := quickSuite(t)
	var got []string
	for _, c := range digestConfigs() {
		for _, b := range s.Benches {
			var serial string
			for _, workers := range []int{1, 4} {
				conf := c.conf
				conf.Workers = workers
				out, err := b.Squash(conf)
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", b.Spec.Name, c.name, workers, err)
				}
				d, err := outputDigest(out)
				if err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					serial = d
				} else if d != serial {
					t.Errorf("%s %s: workers=%d digest differs from the serial squash", b.Spec.Name, c.name, workers)
				}
			}
			got = append(got, fmt.Sprintf("%s %s %s", b.Spec.Name, c.name, serial))
		}
	}
	if *updateDigests {
		if err := os.MkdirAll(filepath.Dir(digestsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(digestsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got  %s\nwant %s", got[i], want[i])
		}
	}
}
