package dfa

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/guard"
	"automatazoo/internal/hooks"
	"automatazoo/internal/sim"
)

// reportKey multiset of an engine run.
func dfaReports(t *testing.T, a *automata.Automaton, opts Options, input []byte) map[[2]int64]int {
	t.Helper()
	e, err := NewWithOptions(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := reportKeys(e.SetOnReport)
	e.Run(input)
	return got
}

func simReports(t *testing.T, a *automata.Automaton, input []byte) map[[2]int64]int {
	t.Helper()
	ref := sim.New(a)
	want := reportKeys(ref.SetOnReport)
	ref.Run(input)
	return want
}

func sameReports(t *testing.T, got, want map[[2]int64]int, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: report sets differ: got %d keys want %d", label, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: report %v: got %d want %d", label, k, got[k], v)
		}
	}
}

func guardInput(n int) []byte {
	rng := rand.New(rand.NewSource(42))
	input := make([]byte, n)
	corpus := []byte("abcxyz0123 catdog\n")
	for i := range input {
		input[i] = corpus[rng.Intn(len(corpus))]
	}
	return input
}

// Forced degradation runs the whole stream on the NFA-fallback path;
// reports must be byte-identical to both the normal DFA and the sim
// reference — the degradation-transparency contract.
func TestForceNFAFallbackReportsIdentical(t *testing.T) {
	a := compile(t, "cat", "dog", "[ab]+c", "x\\d{2,3}y")
	input := guardInput(20_000)
	want := simReports(t, a, input)
	normal := dfaReports(t, a, Options{}, input)
	forced := dfaReports(t, a, Options{ForceNFAFallback: true}, input)
	sameReports(t, normal, want, "normal DFA vs sim")
	sameReports(t, forced, want, "forced fallback vs sim")
}

func TestForceNFAFallbackStats(t *testing.T) {
	a := compile(t, "cat", "dog")
	e, err := NewWithOptions(a, Options{ForceNFAFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	input := guardInput(1000)
	s := e.Run(input)
	if s.Fallbacks == 0 {
		t.Fatal("forced fallback did not count Fallbacks")
	}
	if s.FallbackBytes == 0 {
		t.Fatal("forced fallback did not count FallbackBytes")
	}
	if s.DFAStates != 0 {
		t.Fatalf("forced fallback retained %d DFA states", s.DFAStates)
	}
	if s.CacheBytes != 0 {
		t.Fatalf("forced fallback retained %d cache bytes", s.CacheBytes)
	}
}

// A tiny byte budget forces mid-stream degradation; reports must still be
// identical, and the component's interned bytes must be released.
func TestMaxCacheBytesDegradesMidStream(t *testing.T) {
	a := compile(t, "[ab]+c", "x\\d{2,3}y", "z.z")
	input := guardInput(30_000)
	want := simReports(t, a, input)

	e, err := NewWithOptions(a, Options{MaxCacheBytes: 1}) // below even the initial states
	if err != nil {
		t.Fatal(err)
	}
	got := reportKeys(e.SetOnReport)
	s := e.Run(input)
	sameReports(t, got, want, "byte-budget degraded vs sim")
	if s.Fallbacks == 0 || s.FallbackBytes == 0 {
		t.Fatalf("no degradation recorded: %+v", s)
	}
	if s.CacheBytes != 0 {
		t.Fatalf("degraded components retained %d cache bytes", s.CacheBytes)
	}
}

// ThrashMissRate 0 < r < 1 with a cache that can never warm up (every
// lookup a miss is impossible here, so use a rate low enough to trigger
// on the cold-start window) degrades instead of constructing forever.
func TestThrashMissRateDegrades(t *testing.T) {
	a := compile(t, "[ab]+c", "x\\d{2,3}y", "z.z", "catalog")
	input := guardInput(100_000)
	want := simReports(t, a, input)

	e, err := NewWithOptions(a, Options{ThrashMissRate: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	got := reportKeys(e.SetOnReport)
	s := e.Run(input)
	sameReports(t, got, want, "thrash-degraded vs sim")
	if s.Fallbacks == 0 {
		t.Fatal("thrash threshold never degraded any component")
	}
}

// Governor cache budget: denial degrades (run continues, no trip).
func TestGovernorCacheBudgetDegrades(t *testing.T) {
	a := compile(t, "[ab]+c", "x\\d{2,3}y")
	input := guardInput(30_000)
	want := simReports(t, a, input)

	g := guard.New(context.Background(), guard.Budget{MaxCacheBytes: 1})
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	e.Attach(hooks.Set{Governor: g})
	got := reportKeys(e.SetOnReport)
	if _, rerr := e.RunChecked(input); rerr != nil {
		t.Fatalf("cache-budget denial must degrade, not trip: %v", rerr)
	}
	sameReports(t, got, want, "governor-degraded vs sim")
	if e.CacheStats().Fallbacks == 0 {
		t.Fatal("governor cache denial did not degrade")
	}
	if g.Err() != nil {
		t.Fatalf("degradation recorded a trip: %v", g.Err())
	}
}

func TestRunCheckedInputBudget(t *testing.T) {
	a := compile(t, "cat")
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	e.Attach(hooks.Set{Governor: guard.New(context.Background(), guard.Budget{MaxInputBytes: 5000})})
	s, rerr := e.RunChecked(guardInput(50_000))
	trip := guard.AsTrip(rerr)
	if trip == nil || trip.Budget != guard.BudgetInputBytes {
		t.Fatalf("want input-bytes trip, got %v", rerr)
	}
	if s.Symbols == 0 || s.Symbols > 5000 {
		t.Fatalf("symbols %d, want in (0, 5000]", s.Symbols)
	}
}

func TestRunCheckedInjectedTripAtConstruct(t *testing.T) {
	a := compile(t, "[ab]+c")
	inj, err := guard.ParseInjector("trip:dfa.construct:2", 0)
	if err != nil {
		t.Fatal(err)
	}
	g := guard.New(context.Background(), guard.Budget{})
	g.SetInjector(inj)
	e, nerr := New(a)
	if nerr != nil {
		t.Fatal(nerr)
	}
	e.Attach(hooks.Set{Governor: g})
	_, rerr := e.RunChecked(guardInput(10_000))
	trip := guard.AsTrip(rerr)
	if trip == nil || !trip.Injected || trip.Site != guard.SiteDFAConstruct {
		t.Fatalf("want injected trip at dfa.construct, got %v", rerr)
	}
}

func TestRunCheckedUngovernedMatchesRun(t *testing.T) {
	a := compile(t, "cat", "[ab]+c")
	input := guardInput(10_000)
	var reps1, reps2 []sim.Report
	e1, _ := New(a)
	e1.OnReport = func(r sim.Report) { reps1 = append(reps1, r) }
	want := e1.Run(input)
	e2, _ := New(a)
	e2.OnReport = func(r sim.Report) { reps2 = append(reps2, r) }
	if _, err := e2.RunChecked(input); err != nil {
		t.Fatal(err)
	}
	got := e2.CacheStats()
	// Construction wall time varies run to run; everything else must match.
	got.ConstructNanos, want.ConstructNanos = 0, 0
	if got != want {
		t.Fatalf("ungoverned RunChecked stats %+v != Run %+v", got, want)
	}
	if !slices.Equal(reps1, reps2) {
		t.Fatal("report streams differ")
	}
}
