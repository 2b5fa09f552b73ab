package objfile

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func sampleObject() *Object {
	return &Object{
		Text: []uint32{
			isa.Encode(isa.Br(isa.OpBR, isa.RegZero, 0)), // reloc to "end"
			isa.Encode(isa.Mem(isa.OpLDAH, 1, 31, 0)),    // hi16 to "blob"
			isa.Encode(isa.Mem(isa.OpLDA, 1, 1, 0)),      // lo16 to "blob"
			isa.Encode(isa.Sys(isa.SysHALT)),             // "end"
		},
		Data: []byte{1, 2, 3, 4, 0, 0, 0, 0},
		Symbols: []Symbol{
			{Name: "main", Section: SecText, Offset: 0, Kind: SymFunc},
			{Name: "end", Section: SecText, Offset: 12, Kind: SymLabel},
			{Name: "blob", Section: SecData, Offset: 0, Kind: SymObject},
		},
		Relocs: []Reloc{
			{Section: SecText, Offset: 0, Kind: RelBrDisp21, Sym: "end"},
			{Section: SecText, Offset: 4, Kind: RelHi16, Sym: "blob"},
			{Section: SecText, Offset: 8, Kind: RelLo16, Sym: "blob"},
			{Section: SecData, Offset: 4, Kind: RelWord32, Sym: "main"},
		},
	}
}

func TestLinkResolvesAllRelocKinds(t *testing.T) {
	im, err := Link("main", sampleObject())
	if err != nil {
		t.Fatal(err)
	}
	// Branch from word 0 to word 3: displacement 2.
	br := isa.Decode(im.Text[0])
	if br.Disp != 2 {
		t.Errorf("branch disp = %d, want 2", br.Disp)
	}
	// la pair materializes DataBase.
	hi := isa.Decode(im.Text[1])
	lo := isa.Decode(im.Text[2])
	addr := uint32(hi.Disp<<16 + lo.Disp)
	if addr != DataBase {
		t.Errorf("la materializes %#x, want %#x", addr, DataBase)
	}
	// Data word patched with main's address.
	if got := Word(im.Data, 4); got != TextBase {
		t.Errorf("data word = %#x, want %#x", got, TextBase)
	}
	if im.Entry != TextBase {
		t.Errorf("entry = %#x", im.Entry)
	}
}

func TestLinkErrors(t *testing.T) {
	undef := sampleObject()
	undef.Relocs[0].Sym = "nowhere"
	if _, err := Link("main", undef); err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Errorf("undefined symbol: err = %v", err)
	}

	dup := sampleObject()
	dup.Symbols = append(dup.Symbols, Symbol{Name: "main", Section: SecText, Offset: 4, Kind: SymLabel})
	if _, err := Link("main", dup); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate symbol: err = %v", err)
	}

	if _, err := Link("main"); err == nil {
		t.Error("no objects accepted")
	}

	noEntry := sampleObject()
	if _, err := Link("start", noEntry); err == nil || !strings.Contains(err.Error(), "entry") {
		t.Errorf("missing entry: err = %v", err)
	}
}

func TestLinkMultipleObjects(t *testing.T) {
	a := &Object{
		Text:    []uint32{isa.Encode(isa.Br(isa.OpBSR, isa.RegRA, 0)), isa.Encode(isa.Sys(isa.SysHALT))},
		Symbols: []Symbol{{Name: "main", Section: SecText, Offset: 0, Kind: SymFunc}},
		Relocs:  []Reloc{{Section: SecText, Offset: 0, Kind: RelBrDisp21, Sym: "helper"}},
	}
	b := &Object{
		Text:    []uint32{isa.Encode(isa.Jump(isa.JmpRET, isa.RegZero, isa.RegRA, 0))},
		Symbols: []Symbol{{Name: "helper", Section: SecText, Offset: 0, Kind: SymFunc}},
	}
	im, err := Link("main", a, b)
	if err != nil {
		t.Fatal(err)
	}
	// helper is at word 2; bsr at word 0 → disp 1.
	if d := isa.Decode(im.Text[0]).Disp; d != 1 {
		t.Errorf("cross-object call disp = %d, want 1", d)
	}
	if got, _ := im.SymAddr("helper"); got != TextBase+8 {
		t.Errorf("helper at %#x", got)
	}
	if _, err := im.SymAddr("nonesuch"); err == nil {
		t.Error("SymAddr found a ghost")
	}
}

func TestBranchRangeError(t *testing.T) {
	// A branch to a target ~2^21 words away must be rejected.
	far := &Object{
		Text: make([]uint32, 1<<21+8),
		Symbols: []Symbol{
			{Name: "main", Section: SecText, Offset: 0, Kind: SymFunc},
			{Name: "far", Section: SecText, Offset: (1<<21 + 4) * 4, Kind: SymLabel},
		},
		Relocs: []Reloc{{Section: SecText, Offset: 0, Kind: RelBrDisp21, Sym: "far"}},
	}
	for i := range far.Text {
		far.Text[i] = isa.Encode(isa.Nop())
	}
	if _, err := Link("main", far); err == nil || !strings.Contains(err.Error(), "range") {
		t.Errorf("out-of-range branch: err = %v", err)
	}
}

func TestImageSerializationRoundTrip(t *testing.T) {
	im, err := Link("main", sampleObject())
	if err != nil {
		t.Fatal(err)
	}
	im.Meta = []byte{9, 8, 7}
	var buf bytes.Buffer
	if _, err := im.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(im, back) {
		t.Fatalf("image round trip mismatch:\n%+v\n%+v", im, back)
	}
}

func TestObjectSerializationRoundTrip(t *testing.T) {
	obj := sampleObject()
	var buf bytes.Buffer
	if _, err := obj.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadObject(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(obj, back) {
		t.Fatalf("object round trip mismatch")
	}
}

func TestSerializationRejectsCorruption(t *testing.T) {
	im, _ := Link("main", sampleObject())
	var buf bytes.Buffer
	im.WriteTo(&buf)
	full := buf.Bytes()

	if _, err := ReadImage(bytes.NewReader([]byte("EMO1"))); err == nil {
		t.Error("image reader accepted object magic")
	}
	if _, err := ReadObject(bytes.NewReader(full)); err == nil {
		t.Error("object reader accepted image magic")
	}
	for _, n := range []int{0, 3, 7, len(full) / 2, len(full) - 1} {
		if _, err := ReadImage(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
	// Trailing garbage.
	if _, err := ReadImage(bytes.NewReader(append(append([]byte{}, full...), 0xEE))); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestReadImageRejectsOverrunningSections: text that would run into the
// data segment, or data that would run past memory, is refused on read.
// Such text used to load and then index past the simulator's memory.
func TestReadImageRejectsOverrunningSections(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(im *Image)
	}{
		{"text", func(im *Image) { im.Text = make([]uint32, (DataBase-TextBase)/isa.WordSize+1) }},
		{"data", func(im *Image) { im.Data = make([]byte, MemSize-DataBase+1) }},
	} {
		im, err := Link("main", sampleObject())
		if err != nil {
			t.Fatal(err)
		}
		c.edit(im)
		var buf bytes.Buffer
		if _, err := im.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadImage(&buf); err == nil || !strings.Contains(err.Error(), "overruns") {
			t.Errorf("%s overrunning its segment: %v, want an overrun error", c.name, err)
		}
	}
}

func TestSerializationPropertyRandomObjects(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		obj := &Object{}
		for i := 0; i < r.Intn(50); i++ {
			obj.Text = append(obj.Text, r.Uint32())
		}
		for i := 0; i < r.Intn(64); i++ {
			obj.Data = append(obj.Data, byte(r.Intn(256)))
		}
		for i := 0; i < r.Intn(10); i++ {
			obj.Symbols = append(obj.Symbols, Symbol{
				Name:    string(rune('a' + r.Intn(26))),
				Section: Section(r.Intn(2)),
				Offset:  uint32(r.Intn(1000)),
				Kind:    SymKind(r.Intn(3)),
			})
		}
		var buf bytes.Buffer
		if _, err := obj.WriteTo(&buf); err != nil {
			return false
		}
		back, err := ReadObject(&buf)
		if err != nil {
			return false
		}
		if len(obj.Text) == 0 && len(back.Text) == 0 {
			back.Text = obj.Text // nil vs empty
		}
		if len(obj.Data) == 0 && len(back.Data) == 0 {
			back.Data = obj.Data
		}
		if len(obj.Symbols) == 0 && len(back.Symbols) == 0 {
			back.Symbols = obj.Symbols
		}
		return reflect.DeepEqual(obj.Text, back.Text) &&
			reflect.DeepEqual(obj.Data, back.Data) &&
			reflect.DeepEqual(obj.Symbols, back.Symbols)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSymbolAddrAndKindStrings(t *testing.T) {
	s := Symbol{Name: "x", Section: SecData, Offset: 8}
	if s.Addr() != DataBase+8 {
		t.Errorf("data symbol addr = %#x", s.Addr())
	}
	if SymFunc.String() != "func" || RelHi16.String() != "hi16" {
		t.Error("kind strings broken")
	}
	r := Reloc{Section: SecText, Offset: 4}
	if r.AbsAddr() != TextBase+4 {
		t.Errorf("reloc abs addr = %#x", r.AbsAddr())
	}
}

func TestFuncSymbolsSorted(t *testing.T) {
	obj := sampleObject()
	obj.Symbols = append(obj.Symbols, Symbol{Name: "zz", Section: SecText, Offset: 8, Kind: SymFunc})
	im, err := Link("main", obj)
	if err != nil {
		t.Fatal(err)
	}
	fs := im.FuncSymbols()
	if len(fs) != 2 || fs[0].Name != "main" || fs[1].Name != "zz" {
		t.Fatalf("FuncSymbols = %+v", fs)
	}
}
