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

// dfaReports is the report multiset of a run under the governor cache
// budget cacheBudget (none when 0).
func dfaReports(t *testing.T, a *automata.Automaton, cacheBudget int64, input []byte) map[[2]int64]int {
	t.Helper()
	e := newGoverned(t, a, refConfig{cacheBudget: cacheBudget})
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

// A one-byte governor cache budget forces every component into the NFA
// fallback at its first construction; reports must be byte-identical to
// both the normal DFA and the sim reference — the degradation-transparency
// contract.
func TestForceNFAFallbackReportsIdentical(t *testing.T) {
	a := compile(t, "cat", "dog", "[ab]+c", "x\\d{2,3}y")
	input := guardInput(20_000)
	want := simReports(t, a, input)
	normal := dfaReports(t, a, 0, input)
	starved := dfaReports(t, a, 1, input)
	sameReports(t, normal, want, "normal DFA vs sim")
	sameReports(t, starved, want, "starved DFA vs sim")
}

// A starved engine counts its degradations and fallback bytes and keeps
// no dstate: the ones a degradation releases include those the
// governor's attach-time reservation was denied.
func TestForceNFAFallbackStats(t *testing.T) {
	a := compile(t, "cat", "dog")
	e := newGoverned(t, a, refConfig{cacheBudget: 1})
	s := e.Run(guardInput(1000))
	if s.Fallbacks != len(e.comps) {
		t.Fatalf("%d of %d components degraded", s.Fallbacks, len(e.comps))
	}
	if s.FallbackBytes == 0 {
		t.Fatal("starved engine did not count FallbackBytes")
	}
	if s.DFAStates != 0 {
		t.Fatalf("starved engine retained %d DFA states", s.DFAStates)
	}
	if s.CacheBytes != 0 {
		t.Fatalf("starved engine retained %d cache bytes", s.CacheBytes)
	}
}

// A governor cache budget that runs out mid-stream hands warm frontiers to
// the fallback; reports must still be identical, and the degraded
// components' interned bytes must be released.
func TestMaxCacheBytesDegradesMidStream(t *testing.T) {
	a := compile(t, "[ab]+c", "x\\d{2,3}y", "z.z")
	input := guardInput(30_000)
	want := simReports(t, a, input)
	probe := newGoverned(t, a, refConfig{})
	// Room for the initial dstates and about three more.
	e := newGoverned(t, a, refConfig{cacheBudget: probe.CacheStats().CacheBytes + 600})
	got := reportKeys(e.SetOnReport)
	s := e.Run(input)
	sameReports(t, got, want, "mid-stream degraded vs sim")
	if s.Fallbacks == 0 || s.FallbackBytes >= int64(s.Fallbacks)*int64(len(input)) {
		t.Fatalf("no degradation after offset 0: %+v", s)
	}
	for _, ci := range e.degraded {
		if c := e.comps[ci]; c.bytes != 0 {
			t.Fatalf("degraded component %d retained %d cache bytes", ci, c.bytes)
		}
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
