package mnrl

import (
	"bytes"
	"strings"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/crispr"
	"automatazoo/internal/mesh"
	"automatazoo/internal/randx"
	"automatazoo/internal/regex"
	"automatazoo/internal/sim"
	"automatazoo/internal/spm"
)

// roundTrip exports and re-imports an automaton, asserting structural
// equality and identical report behaviour on input.
func roundTrip(t *testing.T, a *automata.Automaton, input []byte) *automata.Automaton {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteAutomaton(&buf, a, "test"); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAutomaton(&buf)
	if err != nil {
		t.Fatalf("re-import: %v", err)
	}
	if back.NumStates() != a.NumStates() || back.NumEdges() != a.NumEdges() {
		t.Fatalf("structure changed: %d/%d -> %d/%d states/edges",
			a.NumStates(), a.NumEdges(), back.NumStates(), back.NumEdges())
	}
	if back.NumCounters() != a.NumCounters() {
		t.Fatalf("counters changed: %d -> %d", a.NumCounters(), back.NumCounters())
	}
	if input != nil {
		r1 := reports(a, input)
		r2 := reports(back, input)
		if len(r1) != len(r2) {
			t.Fatalf("report count changed: %d -> %d", len(r1), len(r2))
		}
		for k, v := range r1 {
			if r2[k] != v {
				t.Fatalf("report %v changed: %d -> %d", k, v, r2[k])
			}
		}
	}
	return back
}

func reports(a *automata.Automaton, input []byte) map[[2]int64]int {
	e := sim.New(a)
	out := map[[2]int64]int{}
	e.OnReport = func(r sim.Report) { out[[2]int64{r.Offset, int64(r.Code)}]++ }
	e.Run(input)
	return out
}

// mustCompile compiles pattern or fails the test.
func mustCompile(t *testing.T, pattern string, flags regex.Flags, code int32) *regex.CompileResult {
	t.Helper()
	res, err := regex.Compile(pattern, flags, code)
	if err != nil {
		t.Fatalf("Compile(%q): %v", pattern, err)
	}
	return res
}

func TestRoundTripRegex(t *testing.T) {
	res := mustCompile(t, `(cat|dog)[0-9]{2,3}`, regex.CaseInsensitive, 42)
	roundTrip(t, res.Automaton, []byte("CAT12 dog999 cat1"))
}

func TestRoundTripAnchored(t *testing.T) {
	res := mustCompile(t, `^head.*tail`, regex.DotAll, 1)
	back := roundTrip(t, res.Automaton, []byte("headxxxtail"))
	if back.Start(0) != automata.StartOfData {
		t.Fatal("start-of-data lost")
	}
}

func TestRoundTripCounters(t *testing.T) {
	b := automata.NewBuilder()
	if err := spm.Build(b, spm.Pattern{Items: []byte{4, 9}},
		spm.Config{WithCounter: true, SupportThreshold: 3}, 5); err != nil {
		t.Fatal(err)
	}
	a := b.MustBuild()
	input := []byte{4, spm.Sep, 9, spm.Sep, 9, spm.Sep, 9, spm.Sep}
	back := roundTrip(t, a, input)
	cfg, ok := back.CounterConfig(automata.StateID(back.NumStates() - 1))
	if !ok || cfg.Target != 3 || cfg.Mode != automata.CountLatch {
		t.Fatalf("counter config lost: %+v ok=%v", cfg, ok)
	}
}

func TestRoundTripMesh(t *testing.T) {
	rng := randx.New(4)
	b := automata.NewBuilder()
	if err := mesh.BuildLevenshtein(b, mesh.RandomDNA(rng, 8), 2, 0); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, b.MustBuild(), mesh.RandomDNA(rng, 2000))
}

func TestRoundTripCRISPRBenchmark(t *testing.T) {
	a, err := crispr.Benchmark(crispr.CasOFFinder, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(5)
	roundTrip(t, a, mesh.RandomDNA(rng, 5000))
}

func TestSymbolSetCodec(t *testing.T) {
	rng := randx.New(6)
	for trial := 0; trial < 200; trial++ {
		var s charset.Set
		for i := 0; i < rng.Intn(20); i++ {
			s.Add(rng.Byte())
		}
		if trial == 0 {
			s = charset.All()
		}
		enc := string(appendSymbolSet(nil, s))
		dec, err := decodeSymbolSet(enc)
		if err != nil {
			t.Fatalf("decode(%q): %v", enc, err)
		}
		if dec != s {
			t.Fatalf("codec not lossless for %v", s.Bytes())
		}
	}
	// Empty set.
	dec, err := decodeSymbolSet("[]")
	if err != nil || !dec.IsEmpty() {
		t.Fatalf("empty set codec: %v %v", dec, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	for _, bad := range []string{"", "x", "[\\x4", "[\\xzz]", "[\\x05-\\x01]", "[abc]"} {
		if _, err := decodeSymbolSet(bad); err == nil {
			t.Errorf("decodeSymbolSet(%q) should fail", bad)
		}
	}
}

func TestImportErrors(t *testing.T) {
	cases := []string{
		`{"id":"x","nodes":[{"id":"a","type":"weird","activateOnMatch":[]}]}`,
		`{"id":"x","nodes":[{"id":"a","type":"hState","symbolSet":"*","activateOnMatch":["ghost"]}]}`,
		`{"id":"x","nodes":[{"id":"a","type":"hState","symbolSet":"*","activateOnMatch":[]},{"id":"a","type":"hState","symbolSet":"*","activateOnMatch":[]}]}`,
		`{"id":"x","nodes":[{"id":"a","type":"hState","symbolSet":"*","enable":"bogus","activateOnMatch":[]}]}`,
		`not json`,
	}
	for _, c := range cases {
		n, err := Read(strings.NewReader(c))
		if err != nil {
			continue // Read itself rejected it
		}
		if _, err := Import(n); err == nil {
			t.Errorf("Import(%s) should fail", c)
		}
	}
}

func TestForwardReferences(t *testing.T) {
	// A node may activate a node defined later in the file.
	src := `{"id":"f","nodes":[
	  {"id":"first","type":"hState","enable":"always","symbolSet":"[\\x61]","activateOnMatch":["second"]},
	  {"id":"second","type":"hState","report":true,"symbolSet":"[\\x62]","activateOnMatch":[]}
	]}`
	a, err := ReadAutomaton(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(a)
	if got := e.Run([]byte("ab")).Reports; got != 1 {
		t.Fatalf("forward-referenced automaton broken: %d", got)
	}
}

func TestJSONShape(t *testing.T) {
	res := mustCompile(t, "ab", 0, 3)
	var buf bytes.Buffer
	if err := WriteAutomaton(&buf, res.Automaton, "shape"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{`"id": "shape"`, `"hState"`, `"always"`, `"reportId": 3`, `"activateOnMatch"`} {
		if !strings.Contains(out, frag) {
			t.Errorf("JSON missing %q:\n%s", frag, out)
		}
	}
}
