package dfa

import (
	"math/rand"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/regex"
	"automatazoo/internal/sim"
)

func compile(t *testing.T, patterns ...string) *automata.Automaton {
	t.Helper()
	b := automata.NewBuilder()
	for i, p := range patterns {
		parsed, err := regex.Parse(p, 0)
		if err != nil {
			t.Fatalf("Parse(%q): %v", p, err)
		}
		if _, err := regex.CompileInto(b, parsed, int32(i)); err != nil {
			t.Fatalf("CompileInto(%q): %v", p, err)
		}
	}
	return b.MustBuild()
}

// reportKeys points an engine's report callback (its SetOnReport) at a
// fresh (offset, code) multiset and returns the multiset.
func reportKeys(setOnReport func(func(sim.Report))) map[[2]int64]int {
	m := map[[2]int64]int{}
	setOnReport(func(r sim.Report) { m[[2]int64{r.Offset, int64(r.Code)}]++ })
	return m
}

// countReports runs input on e from a fresh stream and returns the number
// of reports.
func countReports(e *Engine, input []byte) int64 {
	e.Reset()
	return e.Run(input).Reports
}

// agree checks the DFA engine and the NFA reference engine report identical
// (offset, code) multisets on input.
func agree(t *testing.T, a *automata.Automaton, input []byte) {
	t.Helper()
	ref := sim.New(a)
	want := reportKeys(ref.SetOnReport)
	ref.Run(input)

	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	got := reportKeys(e.SetOnReport)
	e.Run(input)
	if len(got) != len(want) {
		t.Fatalf("report sets differ: got %d keys want %d\ngot=%v\nwant=%v",
			len(got), len(want), got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("report %v: got %d want %d", k, got[k], v)
		}
	}
}

func TestAgreesWithNFAOnLiterals(t *testing.T) {
	a := compile(t, "cat", "dog", "catalog")
	agree(t, a, []byte("the cat saw a dog in the catalog category"))
}

func TestAgreesOnOverlaps(t *testing.T) {
	a := compile(t, "aa", "aaa")
	agree(t, a, []byte("aaaaaab"))
}

func TestAgreesOnClassesAndRepeats(t *testing.T) {
	a := compile(t, "[ab]+c", "x\\d{2,3}y", "z.z")
	agree(t, a, []byte("abcabc x12y x1234y zqz aaac z\nz"))
}

func TestAgreesOnAnchored(t *testing.T) {
	a := compile(t, "^head", "tail")
	agree(t, a, []byte("headtailhead"))
}

func TestRejectsCounters(t *testing.T) {
	b := automata.NewBuilder()
	s := b.AddSTE(charset.Single('x'), automata.StartAllInput)
	c := b.AddCounter(3, automata.CountRollover)
	b.AddEdge(s, c)
	b.SetReport(c, 0)
	a := b.MustBuild()
	if _, err := New(a); err != ErrCounters {
		t.Fatalf("err=%v want ErrCounters", err)
	}
}

func TestResetRestartsStream(t *testing.T) {
	a := compile(t, "^ab")
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := countReports(e, []byte("ab")); got != 1 {
		t.Fatalf("first run: %d", got)
	}
	if got := countReports(e, []byte("ab")); got != 1 {
		t.Fatalf("after reset: %d (anchored state leaked)", got)
	}
}

func TestStreamingAcrossRuns(t *testing.T) {
	a := compile(t, "abc")
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	e.Run([]byte("ab"))
	e.Run([]byte("c"))
	if e.Stats().Reports != 1 {
		t.Fatalf("cross-call match lost: %+v", e.Stats())
	}
}

func TestDFAStatesBounded(t *testing.T) {
	a := compile(t, "abcde")
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run([]byte("abcdeabcdeXXabc"))
	// A 5-literal has ≤ ~2^5 frontiers but in practice a handful.
	if st.DFAStates > 64 {
		t.Fatalf("suspiciously many DFA states: %d", st.DFAStates)
	}
	if st.Fallbacks != 0 {
		t.Fatalf("unexpected fallback: %+v", st)
	}
}

func TestByteClassCompression(t *testing.T) {
	// DNA-alphabet automaton should have very few byte classes, so the
	// transition tables stay tiny.
	a := compile(t, "acgt", "tgca")
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range e.comps {
		if c.nClasses > 6 {
			t.Fatalf("DNA component has %d byte classes", c.nClasses)
		}
	}
	agree(t, a, []byte("acgtgcaacgttgca"))
}

func TestFallbackCorrectness(t *testing.T) {
	// Force overflow with an artificially tiny budget and verify the
	// component still reports correctly via the NFA path.
	a := compile(t, "[ab]*abb")
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range e.comps {
		c.budget = 2 // absurdly small: force overflow immediately
	}
	input := []byte("abbaabbbabb")
	wantN := sim.New(a).Run(input).Reports
	if got := countReports(e, input); got != wantN {
		t.Fatalf("fallback reports=%d want %d", got, wantN)
	}
	if e.CacheStats().Fallbacks == 0 {
		t.Fatal("expected fallback to trigger")
	}
}

func TestMultiComponentIndependence(t *testing.T) {
	a := compile(t, "aaa", "bbb", "ccc")
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.comps) != 3 {
		t.Fatalf("components=%d", len(e.comps))
	}
	agree(t, a, []byte("aaabbbcccaaa"))
}

// Property: on random patterns and random inputs, DFA and NFA engines agree
// on every (offset, code) report.
func TestQuickEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	atoms := []string{"a", "b", "[ab]", "[^b]", "."}
	randPattern := func() string {
		n := 1 + rng.Intn(4)
		p := ""
		for i := 0; i < n; i++ {
			a := atoms[rng.Intn(len(atoms))]
			switch rng.Intn(6) {
			case 0:
				a += "+"
			case 1:
				a += "{1,2}"
			case 2:
				a = "(" + a + "|" + atoms[rng.Intn(len(atoms))] + ")"
			}
			p += a
		}
		return p
	}
	for trial := 0; trial < 100; trial++ {
		var pats []string
		for i := 0; i < 1+rng.Intn(3); i++ {
			p := randPattern()
			if _, err := regex.Parse(p, 0); err == nil {
				pats = append(pats, p)
			}
		}
		if len(pats) == 0 {
			continue
		}
		a := compile(t, pats...)
		in := make([]byte, rng.Intn(24))
		for i := range in {
			in[i] = "ab"[rng.Intn(2)]
		}
		agree(t, a, in)
	}
}

func TestStatsReportRate(t *testing.T) {
	a := compile(t, "a")
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	e.Run([]byte("aXaX"))
	if got := e.Stats().ReportRate(); got != 0.5 {
		t.Fatalf("rate=%v", got)
	}
	var zero Stats
	if zero.ReportRate() != 0 {
		t.Fatal("zero stats rate")
	}
}

func TestOnReportCallback(t *testing.T) {
	a := compile(t, "hi")
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	e.OnReport = func(r sim.Report) {
		n++
		if r.Offset != 1 {
			t.Errorf("offset=%d", r.Offset)
		}
	}
	e.Run([]byte("hi"))
	if n != 1 {
		t.Fatalf("callback fired %d times", n)
	}
}
