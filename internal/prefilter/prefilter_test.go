package prefilter

import (
	"cmp"
	"slices"
	"sort"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/clamav"
	"automatazoo/internal/core"
	"automatazoo/internal/entity"
	"automatazoo/internal/guard"
	"automatazoo/internal/hooks"
	"automatazoo/internal/regex"
	"automatazoo/internal/sim"
	"automatazoo/internal/spm"
	"automatazoo/internal/telemetry"
	"automatazoo/internal/yara"
)

// agree asserts the prefilter engine reproduces plain NFA interpretation
// exactly: identical Stats and an identical report multiset, with the
// prefilter's stream additionally in canonical (offset, code, state)
// order.
func agree(t *testing.T, a *automata.Automaton, input []byte) *Engine {
	t.Helper()
	ref := sim.New(a)
	var want []sim.Report
	ref.OnReport = func(r sim.Report) { want = append(want, r) }
	wantStats := ref.Run(input)

	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	var got []sim.Report
	e.OnReport = func(r sim.Report) { got = append(got, r) }
	gotStats := e.Run(input)

	if gotStats != wantStats {
		t.Fatalf("stats differ:\nprefilter=%+v\nsim      =%+v", gotStats, wantStats)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return reportLess(got[i], got[j]) }) {
		t.Fatalf("prefilter reports not in canonical order: %v", got)
	}
	// sim emits within-offset reports in activation order; canonicalize
	// both sides before the element-wise comparison.
	sort.SliceStable(want, func(i, j int) bool { return reportLess(want[i], want[j]) })
	if len(got) != len(want) {
		t.Fatalf("report counts differ: got %d want %d\ngot=%v\nwant=%v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("report %d differs: got %+v want %+v", i, got[i], want[i])
		}
	}
	return e
}

func reportLess(a, b sim.Report) bool {
	if a.Offset != b.Offset {
		return a.Offset < b.Offset
	}
	if a.Code != b.Code {
		return a.Code < b.Code
	}
	return a.State < b.State
}

func compilePatterns(t testing.TB, patterns ...string) *automata.Automaton {
	t.Helper()
	b := automata.NewBuilder()
	for i, p := range patterns {
		parsed, err := regex.Parse(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := regex.CompileInto(b, parsed, int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

func TestAnchoredLiterals(t *testing.T) {
	a := compilePatterns(t, "needle", "haystack", "pin")
	e := agree(t, a, []byte("a needle in the haystack, a pin too; needles"))
	if e.Anchored() != 3 || e.Unanchored() != 0 {
		t.Fatalf("anchored=%d unanchored=%d", e.Anchored(), e.Unanchored())
	}
}

func TestLiteralPrefixWithTail(t *testing.T) {
	// Anchor = "error" literal prefix; tail has classes and repeats.
	a := compilePatterns(t, `error: [0-9]{2,4}`, `warn[a-z]+!`)
	e := agree(t, a, []byte("error: 17 warning! error: 123456 warnx! error"))
	if e.Anchored() != 2 {
		t.Fatalf("anchored=%d", e.Anchored())
	}
}

func TestShortAndClassHeadsFallBack(t *testing.T) {
	// "ab" is below MinAnchor; "[xy]zzz" has a class head.
	a := compilePatterns(t, "ab", "[xy]zzz", "longenough")
	e := agree(t, a, []byte("ab xzzz yzzz longenough abab"))
	if e.Anchored() != 1 || e.Unanchored() != 2 {
		t.Fatalf("anchored=%d unanchored=%d", e.Anchored(), e.Unanchored())
	}
}

func TestMinAnchorBoundary(t *testing.T) {
	// Exactly MinAnchor bytes anchors; one byte fewer falls back.
	if MinAnchor != 3 {
		t.Fatalf("test assumes MinAnchor==3, got %d", MinAnchor)
	}
	e := agree(t, compilePatterns(t, "abc"), []byte("xabcx abc ababc"))
	if e.Anchored() != 1 || e.Unanchored() != 0 {
		t.Fatalf("len-3 literal: anchored=%d unanchored=%d", e.Anchored(), e.Unanchored())
	}
	e = agree(t, compilePatterns(t, "ab"), []byte("xabcx abc ababc ab"))
	if e.Anchored() != 0 || e.Unanchored() != 1 {
		t.Fatalf("len-2 literal: anchored=%d unanchored=%d", e.Anchored(), e.Unanchored())
	}
}

func TestAllAnchoredHasNilResidual(t *testing.T) {
	a := compilePatterns(t, "alpha", "beta!", "gamma")
	e := agree(t, a, []byte("alpha beta! gamma alphabet"))
	if e.Unanchored() != 0 {
		t.Fatalf("unanchored=%d", e.Unanchored())
	}
	if got := e.nfa.Automaton().Starts(); len(got) != 0 {
		t.Fatalf("fully anchored automaton left starts %v in the NFA stage", got)
	}
}

func TestOverlappingAnchorHits(t *testing.T) {
	// Self-overlapping anchor: "aaa" occurs 4 times in "aaaaaa"... and the
	// chain-state weights must reproduce sim's Enabled/Active exactly.
	a := compilePatterns(t, "aaa")
	e := agree(t, a, []byte("aaaaaa"))
	if e.AnchorHits() != 4 {
		t.Fatalf("anchor hits=%d want 4", e.AnchorHits())
	}
}

func TestAnchorEqualsWholePattern(t *testing.T) {
	// Reporting tail inside the literal: pattern == anchor.
	a := compilePatterns(t, "exact")
	e := agree(t, a, []byte("exact exact!"))
	if e.Anchored() != 1 {
		t.Fatal("whole-literal pattern should anchor")
	}
}

func TestAnchoredStartOfDataFallsBack(t *testing.T) {
	a := compilePatterns(t, "^boot", "plainliteral")
	e := agree(t, a, []byte("boot plainliteral boot"))
	if e.Anchored() != 1 || e.Unanchored() != 1 {
		t.Fatalf("anchored=%d unanchored=%d", e.Anchored(), e.Unanchored())
	}
}

func TestCounterComponentsFallBack(t *testing.T) {
	b := automata.NewBuilder()
	if err := spm.Build(b, spm.Pattern{Items: []byte{3, 7}},
		spm.Config{WithCounter: true, SupportThreshold: 2}, 0); err != nil {
		t.Fatal(err)
	}
	a := b.MustBuild()
	input := []byte{3, spm.Sep, 7, spm.Sep, 7, spm.Sep, 7, spm.Sep}
	e := agree(t, a, input)
	if e.Anchored() != 0 {
		t.Fatal("counter component must not be anchored")
	}
}

func TestMultiStartComponentsFallBack(t *testing.T) {
	// Hand-built component with two all-input starts converging on one
	// reporting state: no unique entry path, must stay residual.
	b := automata.NewBuilder()
	s1 := b.AddSTE(charset.Single('p'), automata.StartAllInput)
	s2 := b.AddSTE(charset.Single('q'), automata.StartAllInput)
	mid := b.AddSTE(charset.Single('r'), automata.StartNone)
	end := b.AddSTE(charset.Single('s'), automata.StartNone)
	b.SetReport(end, 7)
	b.AddEdge(s1, mid)
	b.AddEdge(s2, mid)
	b.AddEdge(mid, end)
	a := b.MustBuild()
	e := agree(t, a, []byte("prs qrs prsqrs xx"))
	if e.Anchored() != 0 || e.Unanchored() != 1 {
		t.Fatalf("anchored=%d unanchored=%d", e.Anchored(), e.Unanchored())
	}
	if got := e.nfa.Automaton().Starts(); !slices.Equal(got, []automata.StateID{s1, s2}) {
		t.Fatalf("multi-start component should keep its starts in the NFA stage, has %v", got)
	}
}

// TestCanonicalOrderAcrossEmitPaths pins satellite semantics: reports from
// the anchor-tail path and the residual path landing on the same offset
// are delivered in (code, state) order, not emit-mechanism order.
func TestCanonicalOrderAcrossEmitPaths(t *testing.T) {
	// "[ax]aaa" (class head → residual, code 0) and "aaaa" (anchored,
	// code 1) both report at offset 3 of "aaaa". Residual steps after the
	// matcher, so without the merge the code-0 report would come second.
	a := compilePatterns(t, "[ax]aaa", "aaaa")
	e := agree(t, a, []byte("aaaa"))
	if e.Anchored() != 1 || e.Unanchored() != 1 {
		t.Fatalf("anchored=%d unanchored=%d", e.Anchored(), e.Unanchored())
	}
	if e.AnchorHits() != 1 {
		t.Fatalf("anchor hits=%d", e.AnchorHits())
	}
}

// TestReportCollectionContract pins sim.Engine's report contract:
// OnReport and Stats().Reports both see every report.
func TestReportCollectionContract(t *testing.T) {
	a := compilePatterns(t, "aaa")
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	e.OnReport = func(sim.Report) { calls++ }
	st := e.Run([]byte("aaaaaa")) // 4 matches
	if st.Reports != 4 {
		t.Fatalf("stats reports=%d want 4", st.Reports)
	}
	if calls != 4 {
		t.Fatalf("OnReport calls=%d want 4", calls)
	}
}

// TestBudgetTripSticky pins satellite semantics: RunChecked trips at a
// prefilter.chunk boundary with a typed TripError, and the trip is sticky
// — every later boundary returns it again without scanning.
func TestBudgetTripSticky(t *testing.T) {
	a := compilePatterns(t, "needle")
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	gov := guard.New(nil, guard.Budget{MaxInputBytes: 6000})
	e.Attach(hooks.Set{Governor: gov})
	input := make([]byte, 10000)
	st, err := e.RunChecked(input)
	trip := guard.AsTrip(err)
	if trip == nil {
		t.Fatalf("expected trip, got err=%v", err)
	}
	if trip.Budget != guard.BudgetInputBytes {
		t.Fatalf("budget=%q", trip.Budget)
	}
	if trip.Site != guard.SitePrefilter {
		t.Fatalf("site=%q want %q", trip.Site, guard.SitePrefilter)
	}
	// Truncated but valid: exactly the governed chunks before the trip.
	if st.Symbols != 4096 {
		t.Fatalf("symbols=%d want 4096 (one granted chunk)", st.Symbols)
	}
	if _, err2 := e.RunChecked([]byte("more")); guard.AsTrip(err2) == nil {
		t.Fatal("trip must be sticky across calls")
	}
}

// TestInjectedFaultAtPrefilterSite pins the -j/-segments-independent fault
// class: a rule keyed on prefilter.chunk fires at a deterministic
// boundary-hit count.
func TestInjectedFaultAtPrefilterSite(t *testing.T) {
	inj, err := guard.ParseInjector("trip:"+guard.SitePrefilter+":2", 0)
	if err != nil {
		t.Fatal(err)
	}
	gov := guard.New(nil, guard.Budget{})
	gov.SetInjector(inj)
	a := compilePatterns(t, "needle")
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	e.Attach(hooks.Set{Governor: gov})
	st, err := e.RunChecked(make([]byte, 10000))
	trip := guard.AsTrip(err)
	if trip == nil || !trip.Injected {
		t.Fatalf("want injected trip, got %v", err)
	}
	if st.Symbols != 4096 {
		t.Fatalf("symbols=%d want 4096 (tripped entering 2nd chunk)", st.Symbols)
	}
}

// TestSnapshotRestoreRoundTrip drives the segment-scanner contract
// directly: splitting a stream at an arbitrary point via
// FrontierSnapshot/RestoreState reproduces the unsplit run's reports and
// stats, including the Aho–Corasick position carried by the sentinel.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	a := compilePatterns(t, "abcab", `abc[0-9]+x`, "[qz]qq")
	input := []byte("abcababcabc12x zqq abcab qqq abc9x abcabcab")
	for cut := 1; cut < len(input); cut += 3 {
		whole, err := New(a)
		if err != nil {
			t.Fatal(err)
		}
		var wantReps []sim.Report
		whole.OnReport = func(r sim.Report) { wantReps = append(wantReps, r) }
		wantStats := whole.Run(input)

		head, err := New(a)
		if err != nil {
			t.Fatal(err)
		}
		var gotReps []sim.Report
		head.OnReport = func(r sim.Report) { gotReps = append(gotReps, r) }
		headStats := head.Run(input[:cut])
		snap := head.FrontierSnapshot()

		tail, err := New(a)
		if err != nil {
			t.Fatal(err)
		}
		tail.OnReport = head.OnReport
		tail.RestoreState(&sim.StreamState{Offset: int64(cut), Frontier: snap})
		if got := tail.FrontierSnapshot(); len(got) != len(snap) {
			t.Fatalf("cut %d: restored snapshot differs: %v vs %v", cut, got, snap)
		}
		tailStats := tail.Run(input[cut:])

		sum := headStats
		sum.Symbols += tailStats.Symbols
		sum.Enabled += tailStats.Enabled
		sum.Active += tailStats.Active
		sum.CounterPulses += tailStats.CounterPulses
		sum.Reports += tailStats.Reports
		if sum != wantStats {
			t.Fatalf("cut %d: stats differ: split=%+v whole=%+v", cut, sum, wantStats)
		}
		if len(gotReps) != len(wantReps) {
			t.Fatalf("cut %d: reports differ: %v vs %v", cut, gotReps, wantReps)
		}
		for i := range wantReps {
			if gotReps[i] != wantReps[i] {
				t.Fatalf("cut %d report %d: %+v vs %+v", cut, i, gotReps[i], wantReps[i])
			}
		}
	}
}

// TestRestoreStateRejectsForeignFrontier: a frontier whose matcher
// sentinel is missing, doubled or past the trie — or names a state past the
// automaton — is rejected before the engine changes, instead of restoring
// an AC state the next Run indexes out of range; so is a counter value for
// a state that is not a counter.
func TestRestoreStateRejectsForeignFrontier(t *testing.T) {
	for _, tc := range []struct {
		name     string
		patterns []string
	}{
		{"anchored", []string{"abcab", `abc[0-9]+x`, "[qz]qq"}},
		{"no matcher", []string{"[qz]qq", "[ab]b"}},
	} {
		a := compilePatterns(t, tc.patterns...)
		e, err := New(a)
		if err != nil {
			t.Fatal(err)
		}
		ns := automata.StateID(a.NumStates())
		nodes := automata.StateID(1)
		if e.matcher != nil {
			nodes = automata.StateID(e.matcher.NumNodes())
		}
		e.Run([]byte("abcab zq"))
		before := e.FrontierSnapshot()
		for _, bad := range [][]automata.StateID{
			{ns + nodes + 5},
			{ns + nodes},
			{0},
			{ns, ns},
			{0, ns, ns + nodes - 1},
		} {
			if err := e.RestoreState(&sim.StreamState{Offset: 3, Frontier: bad}); err == nil {
				t.Fatalf("%s: frontier %v accepted (%d states, %d nodes)", tc.name, bad, ns, nodes)
			}
			if got := e.FrontierSnapshot(); !slices.Equal(got, before) {
				t.Fatalf("%s: rejected frontier %v changed the engine: %v, was %v", tc.name, bad, got, before)
			}
		}
		// A counter value for a state that is no counter (the last state, a
		// residual STE), with a valid frontier: the check must come before
		// the reset.
		notCounter := &sim.StreamState{Offset: 3, Frontier: []automata.StateID{0, ns},
			Counters: []sim.CounterSnapshot{{ID: ns - 1, Value: 1}}}
		if err := e.RestoreState(notCounter); err == nil {
			t.Fatalf("%s: counter snapshot of STE %d accepted", tc.name, ns-1)
		}
		if got := e.FrontierSnapshot(); !slices.Equal(got, before) {
			t.Fatalf("%s: rejected counter snapshot changed the engine: %v, was %v", tc.name, got, before)
		}
		if err := e.RestoreState(&sim.StreamState{Offset: 3, Frontier: []automata.StateID{0, ns + nodes - 1}}); err != nil {
			t.Fatalf("%s: last matcher node rejected: %v", tc.name, err)
		}
		e.Run([]byte("abcab zqq"))
	}
}

func TestClamAVEquivalenceAndAcceleration(t *testing.T) {
	sigs := clamav.Generate(300, 21)
	a, _, err := clamav.Compile(sigs)
	if err != nil {
		t.Fatal(err)
	}
	img, err := clamav.DiskImage(1<<16, []clamav.Signature{sigs[5], sigs[200]}, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := agree(t, a, img)
	// Literal-headed hex signatures should nearly all be anchored.
	if e.Anchored() < 250 {
		t.Fatalf("anchored=%d of 300, expected most", e.Anchored())
	}
}

func TestYARAEquivalence(t *testing.T) {
	rules := yara.Generate(yara.GenConfig{Rules: 150}, 8)
	a, _, err := yara.Compile(rules)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := yara.Corpus(1<<15, rules[:3], 9)
	if err != nil {
		t.Fatal(err)
	}
	agree(t, a, corpus)
}

func TestEntityEquivalence(t *testing.T) {
	// Hamming-mesh components have multiple start states → all residual;
	// the engine must still be exactly equivalent.
	names := entity.GenerateNames(40, 3)
	a, err := entity.Benchmark(names)
	if err != nil {
		t.Fatal(err)
	}
	stream := entity.Stream(names, 20_000, 4)
	e := agree(t, a, stream)
	if e.Anchored() != 0 {
		t.Fatalf("mesh filters unexpectedly anchored: %d", e.Anchored())
	}
}

// traceEvent is one Tracer call; kind is 's'ymbol, 'a'ctivate or 'r'eport.
type traceEvent struct {
	off   int64
	kind  byte
	state uint32
	code  int32
	sym   byte
}

type eventTracer struct{ ev []traceEvent }

func (r *eventTracer) OnSymbol(off int64, b byte) {
	r.ev = append(r.ev, traceEvent{off: off, kind: 's', sym: b})
}
func (r *eventTracer) OnActivate(off int64, s uint32) {
	r.ev = append(r.ev, traceEvent{off: off, kind: 'a', state: s})
}
func (r *eventTracer) OnReport(off int64, s uint32, code int32) {
	r.ev = append(r.ev, traceEvent{off: off, kind: 'r', state: s, code: code})
}
func (r *eventTracer) OnCacheEvent(int64, int, telemetry.CacheEventKind) {}

// trace runs input through e under a recording tracer and returns the
// events sorted, so that equal per-offset multisets compare equal.
func trace(e interface {
	Attach(hooks.Set)
	Run([]byte) sim.Stats
}, input []byte) []traceEvent {
	tr := &eventTracer{}
	e.Attach(hooks.Set{Tracer: tr})
	e.Run(input)
	slices.SortFunc(tr.ev, func(x, y traceEvent) int {
		return cmp.Or(cmp.Compare(x.off, y.off), cmp.Compare(x.kind, y.kind), cmp.Compare(x.state, y.state),
			cmp.Compare(x.code, y.code), cmp.Compare(x.sym, y.sym))
	})
	return tr.ev
}

// TestTraceMatchesSim: per offset, the prefilter traces the symbols and
// reports sim traces, and every activation sim traces but the anchor
// chains' — the states the matcher stands in for.
func TestTraceMatchesSim(t *testing.T) {
	snort, err := core.ByName("Snort")
	if err != nil {
		t.Fatal(err)
	}
	sa, segs, err := snort.Build(core.Config{Scale: 0.02, InputBytes: 50_000, Seed: 0xa20})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		a     *automata.Automaton
		input []byte
	}{
		{"mixed", compilePatterns(t, "needle", `error: [0-9]+x`, "[xy]zzz", "ab"),
			[]byte("a needle error: 17x xzzz needles ab error: 9x yzzzz")},
		{"Snort", sa, segs[0]},
	} {
		e, err := New(tc.a)
		if err != nil {
			t.Fatal(err)
		}
		chain := make([]bool, tc.a.NumStates())
		pred := tc.a.Reverse()
		for _, an := range e.anchors {
			for s, n := an.tail, 0; n < len(an.literal); n++ {
				chain[s] = true
				if n+1 < len(an.literal) {
					s = pred[s][0]
				}
			}
		}
		want := slices.DeleteFunc(trace(sim.New(tc.a), tc.input), func(ev traceEvent) bool {
			return ev.kind == 'a' && chain[ev.state]
		})
		got := trace(e, tc.input)
		acts := 0
		for _, ev := range got {
			if ev.kind == 'a' {
				acts++
			}
		}
		if acts == 0 {
			t.Fatalf("%s: no activation traced: the test premise is broken", tc.name)
		}
		if !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s: %d events, sim minus chains %d; first difference at %d: %+v vs %+v",
				tc.name, len(got), len(want), i, got[min(i, len(got)-1)], want[min(i, len(want)-1)])
		}
	}
}
