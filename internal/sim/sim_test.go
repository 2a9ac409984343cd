package sim

import (
	"strings"
	"testing"
	"testing/quick"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
)

// literalAutomaton returns an automaton matching the literal anywhere in the
// stream (head is all-input), reporting code on the last byte.
func literalAutomaton(lit string, code int32) *automata.Automaton {
	b := automata.NewBuilder()
	var prev automata.StateID = automata.NoState
	for i := 0; i < len(lit); i++ {
		st := automata.StartNone
		if i == 0 {
			st = automata.StartAllInput
		}
		id := b.AddSTE(charset.Single(lit[i]), st)
		if prev != automata.NoState {
			b.AddEdge(prev, id)
		}
		prev = id
	}
	b.SetReport(prev, code)
	return b.MustBuild()
}

// reportsOf runs input on e, continuing its stream, and returns the
// reports the run emitted through OnReport.
func reportsOf(e *Engine, input []byte) []Report {
	var reps []Report
	e.OnReport = func(r Report) { reps = append(reps, r) }
	e.Run(input)
	e.OnReport = nil
	return reps
}

// countReports runs input on e from a fresh stream and returns the number
// of reports.
func countReports(e *Engine, input []byte) int64 {
	e.Reset()
	return e.Run(input).Reports
}

// naiveCount counts occurrences of lit in input (overlapping included),
// the ground truth for literal automata.
func naiveCount(input, lit string) int64 {
	var n int64
	for i := 0; i+len(lit) <= len(input); i++ {
		if input[i:i+len(lit)] == lit {
			n++
		}
	}
	return n
}

func TestLiteralMatch(t *testing.T) {
	a := literalAutomaton("abc", 1)
	e := New(a)
	reps := reportsOf(e, []byte("xxabcxxabcabc"))
	if len(reps) != 3 {
		t.Fatalf("reports=%d want 3", len(reps))
	}
	wantOffsets := []int64{4, 9, 12}
	for i, r := range reps {
		if r.Offset != wantOffsets[i] {
			t.Errorf("report %d at offset %d, want %d", i, r.Offset, wantOffsets[i])
		}
		if r.Code != 1 {
			t.Errorf("report code %d", r.Code)
		}
	}
}

func TestOverlappingMatches(t *testing.T) {
	a := literalAutomaton("aa", 0)
	e := New(a)
	if got := countReports(e, []byte("aaaa")); got != 3 {
		t.Fatalf("overlapping count=%d want 3", got)
	}
}

func TestStartOfData(t *testing.T) {
	// ^ab : anchored, start-of-data head.
	b := automata.NewBuilder()
	s0 := b.AddSTE(charset.Single('a'), automata.StartOfData)
	s1 := b.AddSTE(charset.Single('b'), automata.StartNone)
	b.AddEdge(s0, s1)
	b.SetReport(s1, 0)
	a := b.MustBuild()
	e := New(a)
	if got := countReports(e, []byte("abab")); got != 1 {
		t.Fatalf("anchored count=%d want 1", got)
	}
	if got := countReports(e, []byte("xab")); got != 0 {
		t.Fatalf("anchored count=%d want 0", got)
	}
}

func TestResetClearsState(t *testing.T) {
	a := literalAutomaton("ab", 0)
	e := New(a)
	e.Run([]byte("a")) // 'a' active; 'b' enabled
	e.Reset()
	if got := countReports(e, []byte("b")); got != 0 {
		t.Fatal("stale frontier survived Reset")
	}
	if e.Stats().Symbols != 1 {
		t.Fatalf("stats not from fresh run: %+v", e.Stats())
	}
}

func TestStreamingAcrossRunCalls(t *testing.T) {
	a := literalAutomaton("ab", 0)
	e := New(a)
	e.Run([]byte("xa"))
	e.Run([]byte("b"))
	if e.Stats().Reports != 1 {
		t.Fatalf("match across Run boundary lost: %+v", e.Stats())
	}
}

func TestAlternationViaFanout(t *testing.T) {
	// a(b|c) as homogeneous fan-out.
	b := automata.NewBuilder()
	s := b.AddSTE(charset.Single('a'), automata.StartAllInput)
	x := b.AddSTE(charset.Single('b'), automata.StartNone)
	y := b.AddSTE(charset.Single('c'), automata.StartNone)
	b.AddEdge(s, x)
	b.AddEdge(s, y)
	b.SetReport(x, 1)
	b.SetReport(y, 2)
	a := b.MustBuild()
	e := New(a)
	reps := reportsOf(e, []byte("abac"))
	if len(reps) != 2 || reps[0].Code != 1 || reps[1].Code != 2 {
		t.Fatalf("reports=%v", reps)
	}
}

func TestSelfLoop(t *testing.T) {
	// a+b : 'a' state loops on itself.
	b := automata.NewBuilder()
	s := b.AddSTE(charset.Single('a'), automata.StartAllInput)
	b.AddEdge(s, s)
	r := b.AddSTE(charset.Single('b'), automata.StartNone)
	b.AddEdge(s, r)
	b.SetReport(r, 0)
	a := b.MustBuild()
	e := New(a)
	if got := countReports(e, []byte("aaab")); got != 1 {
		t.Fatalf("a+b count=%d want 1", got)
	}
	if got := countReports(e, []byte("b")); got != 0 {
		t.Fatalf("bare b matched: %d", got)
	}
}

func TestAllInputStartWithIncomingEdgeActivatesOnce(t *testing.T) {
	// State is both an all-input start and its own successor; it must
	// activate (and report) at most once per symbol.
	b := automata.NewBuilder()
	s := b.AddSTE(charset.Single('a'), automata.StartAllInput)
	b.AddEdge(s, s)
	b.SetReport(s, 0)
	a := b.MustBuild()
	e := New(a)
	if got := countReports(e, []byte("aa")); got != 2 {
		t.Fatalf("reports=%d want 2 (once per symbol)", got)
	}
}

func TestCounterRollover(t *testing.T) {
	// Count three 'x' activations, then report and roll over.
	b := automata.NewBuilder()
	s := b.AddSTE(charset.Single('x'), automata.StartAllInput)
	c := b.AddCounter(3, automata.CountRollover)
	b.AddEdge(s, c)
	b.SetReport(c, 9)
	a := b.MustBuild()
	e := New(a)
	reps := reportsOf(e, []byte("xxxxxxx")) // 7 x's -> fires at 3rd and 6th
	if len(reps) != 2 {
		t.Fatalf("counter reports=%d want 2", len(reps))
	}
	if reps[0].Offset != 2 || reps[1].Offset != 5 {
		t.Fatalf("counter offsets=%v", reps)
	}
	if reps[0].Code != 9 {
		t.Fatalf("counter code=%d", reps[0].Code)
	}
}

func TestCounterLatch(t *testing.T) {
	b := automata.NewBuilder()
	s := b.AddSTE(charset.Single('x'), automata.StartAllInput)
	c := b.AddCounter(2, automata.CountLatch)
	b.AddEdge(s, c)
	b.SetReport(c, 0)
	a := b.MustBuild()
	e := New(a)
	if got := countReports(e, []byte("xxxxxx")); got != 1 {
		t.Fatalf("latched counter reports=%d want 1", got)
	}
}

func TestCounterEnablesSuccessor(t *testing.T) {
	// After two 'a's, the counter fires and enables a 'b' detector.
	b := automata.NewBuilder()
	s := b.AddSTE(charset.Single('a'), automata.StartAllInput)
	c := b.AddCounter(2, automata.CountRollover)
	b.AddEdge(s, c)
	r := b.AddSTE(charset.Single('b'), automata.StartNone)
	b.AddEdge(c, r)
	b.SetReport(r, 0)
	a := b.MustBuild()
	e := New(a)
	if got := countReports(e, []byte("aab")); got != 1 {
		t.Fatalf("counter-enabled match=%d want 1", got)
	}
	if got := countReports(e, []byte("ab")); got != 0 {
		t.Fatalf("premature counter fire: %d", got)
	}
}

func TestCounterSinglePulsePerCycle(t *testing.T) {
	// Two distinct states pulse the same counter in the same cycle; the AP
	// model increments once per cycle.
	b := automata.NewBuilder()
	s1 := b.AddSTE(charset.Single('x'), automata.StartAllInput)
	s2 := b.AddSTE(charset.Single('x'), automata.StartAllInput)
	c := b.AddCounter(2, automata.CountRollover)
	b.AddEdge(s1, c)
	b.AddEdge(s2, c)
	b.SetReport(c, 0)
	a := b.MustBuild()
	e := New(a)
	if got := countReports(e, []byte("x")); got != 0 {
		t.Fatalf("counter double-pulsed in one cycle: %d", got)
	}
	if got := countReports(e, []byte("xx")); got != 1 {
		t.Fatalf("counter fire count=%d want 1", got)
	}
}

func TestStats(t *testing.T) {
	a := literalAutomaton("ab", 0)
	e := New(a)
	st := e.Run([]byte("abab"))
	if st.Symbols != 4 {
		t.Fatalf("symbols=%d", st.Symbols)
	}
	// 'a' (start) matches at 0 and 2; 'b' matches at 1 and 3 → Active=4.
	if st.Active != 4 {
		t.Fatalf("active=%d want 4", st.Active)
	}
	// 'b' enabled at offsets 1 and 3 → Enabled=2.
	if st.Enabled != 2 {
		t.Fatalf("enabled=%d want 2", st.Enabled)
	}
	if st.Reports != 2 {
		t.Fatalf("reports=%d", st.Reports)
	}
	if st.ActiveAvg() != 1.0 || st.EnabledAvg() != 0.5 || st.ReportRate() != 0.5 {
		t.Fatalf("averages wrong: %+v", st)
	}
}

func TestStatsZeroSymbols(t *testing.T) {
	var s Stats
	if s.ActiveAvg() != 0 || s.EnabledAvg() != 0 || s.ReportRate() != 0 {
		t.Fatal("zero-symbol averages should be 0")
	}
}

func TestOnReportCallback(t *testing.T) {
	a := literalAutomaton("z", 5)
	e := New(a)
	var got []Report
	e.OnReport = func(r Report) { got = append(got, r) }
	e.Run([]byte("zz"))
	if len(got) != 2 || got[0].Code != 5 {
		t.Fatalf("callback reports=%v", got)
	}
}

// Property: for random literals and inputs over a small alphabet, the
// engine's report count equals the naive overlapping-substring count.
func TestQuickLiteralEquivalence(t *testing.T) {
	f := func(litRaw []byte, inputRaw []byte) bool {
		if len(litRaw) == 0 {
			return true
		}
		lit := make([]byte, 1+len(litRaw)%4)
		for i := range lit {
			lit[i] = 'a' + litRaw[i%len(litRaw)]%3
		}
		input := make([]byte, len(inputRaw))
		for i := range input {
			input[i] = 'a' + inputRaw[i]%3
		}
		a := literalAutomaton(string(lit), 0)
		e := New(a)
		return countReports(e, input) == naiveCount(string(input), string(lit))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Active and Enabled are monotone in input length and Enabled
// never undercounts matches from non-start states.
func TestQuickStatsSanity(t *testing.T) {
	f := func(inputRaw []byte) bool {
		input := make([]byte, len(inputRaw))
		for i := range input {
			input[i] = 'a' + inputRaw[i]%3
		}
		a := literalAutomaton("ab", 0)
		e := New(a)
		st := e.Run(input)
		return st.Symbols == int64(len(input)) &&
			st.Active >= st.Reports &&
			st.Enabled >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLargeFanInDedup(t *testing.T) {
	// Many states enabling the same successor in one cycle: successor must
	// appear once in the frontier (Enabled counts it once).
	b := automata.NewBuilder()
	var heads []automata.StateID
	for i := 0; i < 10; i++ {
		heads = append(heads, b.AddSTE(charset.Single('a'), automata.StartAllInput))
	}
	tail := b.AddSTE(charset.Single('b'), automata.StartNone)
	for _, h := range heads {
		b.AddEdge(h, tail)
	}
	b.SetReport(tail, 0)
	a := b.MustBuild()
	e := New(a)
	st := e.Run([]byte("ab"))
	if st.Enabled != 1 {
		t.Fatalf("enabled=%d want 1 (dedup)", st.Enabled)
	}
	if st.Reports != 1 {
		t.Fatalf("reports=%d want 1", st.Reports)
	}
}

func TestGenerationWraparound(t *testing.T) {
	// Force many Reset cycles to make sure generation bookkeeping stays
	// consistent (wraparound path is exercised only logically here).
	a := literalAutomaton("ab", 0)
	e := New(a)
	for i := 0; i < 1000; i++ {
		if got := countReports(e, []byte("ab")); got != 1 {
			t.Fatalf("iteration %d: got %d", i, got)
		}
	}
}

func TestEngineIndependentInstances(t *testing.T) {
	a := literalAutomaton("ab", 0)
	e1 := New(a)
	e2 := New(a)
	e1.Run([]byte("a"))
	if got := countReports(e2, []byte("b")); got != 0 {
		t.Fatal("engines share runtime state")
	}
}

func TestDotNewlineIndependence(t *testing.T) {
	// Class with 255 symbols (NotNewline) behaves correctly in start index.
	b := automata.NewBuilder()
	s := b.AddSTE(charset.NotNewline(), automata.StartAllInput)
	b.SetReport(s, 0)
	a := b.MustBuild()
	e := New(a)
	if got := countReports(e, []byte("a\nb")); got != 2 {
		t.Fatalf("notnewline count=%d want 2", got)
	}
}

func TestMultiPatternMerged(t *testing.T) {
	b := automata.NewBuilder()
	b.Merge(literalAutomaton("cat", 1), 0)
	b.Merge(literalAutomaton("dog", 2), 0)
	a := b.MustBuild()
	e := New(a)
	var cats, dogs int
	for _, r := range reportsOf(e, []byte("the cat saw a dog catnap")) {
		switch r.Code {
		case 1:
			cats++
		case 2:
			dogs++
		}
	}
	if cats != 2 || dogs != 1 {
		t.Fatalf("cats=%d dogs=%d", cats, dogs)
	}
}

func TestLongInputThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("long input")
	}
	a := literalAutomaton("needle", 0)
	e := New(a)
	input := []byte(strings.Repeat("haystack", 10000) + "needle")
	if got := countReports(e, input); got != 1 {
		t.Fatalf("got %d", got)
	}
}
