package profile

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cfg"
)

// synthProgram builds a program whose blocks have prescribed (freq, size)
// pairs, bypassing the assembler: IdentifyCold only reads Freq/Weight/Insts.
func synthProgram(blocks []struct {
	freq uint64
	size int
}) *cfg.Program {
	p := &cfg.Program{Entry: "f0"}
	for i, b := range blocks {
		blk := &cfg.Block{
			Label:  labelFor(i),
			Insts:  make([]cfg.Inst, b.size),
			Freq:   b.freq,
			Weight: b.freq * uint64(b.size),
		}
		p.Funcs = append(p.Funcs, &cfg.Func{Name: blk.Label, Blocks: []*cfg.Block{blk}})
	}
	return p
}

func labelFor(i int) string { return string(rune('f')) + string(rune('0'+i)) }

func TestIdentifyColdThetaZero(t *testing.T) {
	p := synthProgram([]struct {
		freq uint64
		size int
	}{
		{0, 10}, // never executed: always cold
		{1, 10},
		{100, 10},
	})
	cs := IdentifyCold(p, 0)
	if !cs.Cold[labelFor(0)] || cs.Cold[labelFor(1)] || cs.Cold[labelFor(2)] {
		t.Fatalf("θ=0 cold set wrong: %v", cs.Cold)
	}
	if cs.MaxFreq != 0 {
		t.Errorf("MaxFreq = %d", cs.MaxFreq)
	}
	if cs.ColdInsts != 10 || cs.TotalInsts != 30 {
		t.Errorf("insts: %d/%d", cs.ColdInsts, cs.TotalInsts)
	}
}

func TestIdentifyColdWholeClassAdmission(t *testing.T) {
	// Two freq-1 blocks with weights 10 and 10; total weight 1020. A budget
	// that covers one but not both (θ ≈ 15/1020) must admit neither,
	// because blocks of equal frequency are admitted as a class.
	p := synthProgram([]struct {
		freq uint64
		size int
	}{
		{1, 10},
		{1, 10},
		{100, 10},
	})
	cs := IdentifyCold(p, 15.0/1020.0)
	if cs.Cold[labelFor(0)] || cs.Cold[labelFor(1)] {
		t.Fatalf("partial frequency class admitted: %v", cs.Cold)
	}
	cs = IdentifyCold(p, 25.0/1020.0)
	if !cs.Cold[labelFor(0)] || !cs.Cold[labelFor(1)] {
		t.Fatalf("full class not admitted: %v", cs.Cold)
	}
}

func TestIdentifyColdThetaOne(t *testing.T) {
	p := synthProgram([]struct {
		freq uint64
		size int
	}{
		{5, 3}, {7, 4}, {0, 2},
	})
	cs := IdentifyCold(p, 1)
	if len(cs.Cold) != 3 {
		t.Fatalf("θ=1 must mark everything cold: %v", cs.Cold)
	}
	if cs.ColdFraction() != 1 {
		t.Errorf("fraction = %v", cs.ColdFraction())
	}
}

func TestIdentifyColdClampsTheta(t *testing.T) {
	p := synthProgram([]struct {
		freq uint64
		size int
	}{{1, 5}})
	if got := IdentifyCold(p, -3).ColdInsts; got != 0 {
		t.Errorf("negative θ admitted %d insts", got)
	}
	if got := IdentifyCold(p, 42).ColdInsts; got != 5 {
		t.Errorf("θ>1 admitted %d insts, want all 5", got)
	}
}

func TestIdentifyColdMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		blocks := make([]struct {
			freq uint64
			size int
		}, n)
		for i := range blocks {
			blocks[i].freq = uint64(r.Intn(1000))
			blocks[i].size = 1 + r.Intn(50)
		}
		p := synthProgram(blocks)
		prev := -1
		for _, th := range []float64{0, 0.001, 0.01, 0.1, 0.5, 1} {
			cs := IdentifyCold(p, th)
			if cs.ColdInsts < prev {
				return false
			}
			// Invariant: everything with freq <= MaxFreq is cold, nothing else.
			for i, b := range blocks {
				want := b.freq <= cs.MaxFreq
				if cs.Cold[labelFor(i)] != want {
					return false
				}
			}
			prev = cs.ColdInsts
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCountsSerializationRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := make(Counts, r.Intn(200))
		for i := range c {
			c[i] = uint64(r.Intn(1 << 30))
		}
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			return false
		}
		back, err := ReadCounts(&buf)
		if err != nil {
			return false
		}
		if len(c) == 0 && len(back) == 0 {
			return true
		}
		return reflect.DeepEqual(c, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReadCountsRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{
		nil,
		[]byte("EMPX"),
		[]byte("EMP1\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"), // huge count
		[]byte{'E', 'M', 'P', '1', 3, 1},                       // truncated values
	} {
		if _, err := ReadCounts(bytes.NewReader(b)); err == nil {
			t.Errorf("accepted %q", b)
		}
	}
}

// refIdentifyCold is the original label-keyed IdentifyCold, kept as the
// test oracle for the shared threshold and for ColdBlocks: a stable sort
// of the blocks by frequency, then the class walk.
func refIdentifyCold(p *cfg.Program, theta float64) *ColdSet {
	theta = min(max(theta, 0), 1)
	var blocks []*cfg.Block
	for _, f := range p.Funcs {
		blocks = append(blocks, f.Blocks...)
	}
	sort.SliceStable(blocks, func(i, j int) bool { return blocks[i].Freq < blocks[j].Freq })
	tot := p.TotalWeight()
	budget := uint64(float64(tot) * theta)
	if theta >= 1 {
		budget = tot
	}
	s := &ColdSet{Cold: make(map[string]bool), TotalWeight: tot}
	var cum, maxFreq uint64
	for i := 0; i < len(blocks); {
		j := i
		var classWeight uint64
		for j < len(blocks) && blocks[j].Freq == blocks[i].Freq {
			classWeight += blocks[j].Weight
			j++
		}
		if cum+classWeight > budget {
			break
		}
		cum += classWeight
		maxFreq = blocks[i].Freq
		i = j
	}
	s.MaxFreq, s.ColdWeight = maxFreq, cum
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			s.TotalInsts += len(b.Insts)
			if b.Freq <= maxFreq {
				s.Cold[b.Label] = true
				s.ColdInsts += len(b.Insts)
			}
		}
	}
	return s
}

// TestColdBlocksMatchesReference: on random programs with many equal
// frequencies, IdentifyCold, ColdThreshold and ColdBlocks agree with the
// label-keyed reference at every θ.
func TestColdBlocksMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := &cfg.Program{Entry: "f0"}
		for fi := 0; fi < 1+r.Intn(6); fi++ {
			fn := &cfg.Func{Name: fmt.Sprintf("f%d", fi)}
			for bi := 0; bi < 1+r.Intn(8); bi++ {
				freq, size := uint64(r.Intn(12)), 1+r.Intn(30)
				fn.Blocks = append(fn.Blocks, &cfg.Block{
					Label:  fmt.Sprintf("f%d$%d", fi, bi),
					Insts:  make([]cfg.Inst, size),
					Freq:   freq,
					Weight: freq * uint64(size),
				})
			}
			fn.Blocks[0].Label = fn.Name
			p.Funcs = append(p.Funcs, fn)
		}
		x, err := cfg.NewIndex(p, 1)
		if err != nil {
			t.Log(err)
			return false
		}
		for _, th := range []float64{-1, 0, 0.01, 0.05, 0.2, 0.5, 0.9, 1, 2} {
			want := refIdentifyCold(p, th)
			if got := IdentifyCold(p, th); !reflect.DeepEqual(got, want) {
				t.Logf("θ=%v: IdentifyCold %+v, want %+v", th, got, want)
				return false
			}
			want.Cold = nil
			if got := ColdThreshold(p, th); !reflect.DeepEqual(got, want) {
				t.Logf("θ=%v: ColdThreshold %+v, want %+v", th, got, want)
				return false
			}
			for i, cold := range ColdBlocks(x, th) {
				if cold != (x.Blocks[i].Freq <= want.MaxFreq) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
