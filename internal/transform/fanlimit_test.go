package transform

import (
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/mesh"
	"automatazoo/internal/randx"
)

func TestLimitFanOutSimpleSplit(t *testing.T) {
	// One state fanning to 10 literal tails.
	b := automata.NewBuilder()
	head := b.AddSTE(charset.Single('x'), automata.StartAllInput)
	for i := 0; i < 10; i++ {
		tail := b.AddSTE(charset.Single(byte('a'+i)), automata.StartNone)
		b.AddEdge(head, tail)
		b.SetReport(tail, int32(i))
	}
	a := b.MustBuild()
	lim, err := LimitFanOut(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if maxFanOut(lim) > 4 {
		t.Fatalf("fan-out still %d", maxFanOut(lim))
	}
	// Behaviour preserved on all two-byte inputs.
	for i := 0; i < 10; i++ {
		in := []byte{'x', byte('a' + i)}
		if !sameReports(reportsOf(a, in), reportsOf(lim, in)) {
			t.Fatalf("reports differ for %q", in)
		}
	}
}

func TestLimitFanOutNoop(t *testing.T) {
	a := compile(t, "abc")
	lim, err := LimitFanOut(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if lim.NumStates() != a.NumStates() {
		t.Fatal("noop pass changed the automaton")
	}
}

func TestLimitFanOutLevenshteinEquivalence(t *testing.T) {
	// Levenshtein meshes are the fan-out-heavy family (Table I: 11+
	// edges/node at d=10); the limited automaton must match identically.
	rng := randx.New(31)
	b := automata.NewBuilder()
	pattern := mesh.RandomDNA(rng, 9)
	if err := mesh.BuildLevenshtein(b, pattern, 3, 0); err != nil {
		t.Fatal(err)
	}
	a := b.MustBuild()
	before := maxFanOut(a)
	if before <= 6 {
		t.Fatalf("test premise broken: fan-out only %d", before)
	}
	lim, err := LimitFanOut(a, 6)
	if err != nil {
		t.Fatal(err)
	}
	if maxFanOut(lim) > 6 {
		t.Fatalf("fan-out still %d", maxFanOut(lim))
	}
	if lim.NumStates() <= a.NumStates() {
		t.Fatal("splitting should add states")
	}
	input := mesh.RandomDNA(rng, 4000)
	got := reportsOf(lim, input)
	want := reportsOf(a, input)
	// Compare distinct offsets (replica elimination keeps one reporter per
	// split group, so multiplicities are preserved too — assert both).
	if !sameReports(got, want) {
		t.Fatalf("reports differ: %d vs %d entries", len(got), len(want))
	}
}

func TestLimitFanOutSelfLoops(t *testing.T) {
	// Self-looping state with wide fan-out (gap states do this).
	b := automata.NewBuilder()
	g := b.AddSTE(charset.All(), automata.StartAllInput)
	b.AddEdge(g, g)
	for i := 0; i < 9; i++ {
		tail := b.AddSTE(charset.Single(byte('a'+i)), automata.StartNone)
		b.AddEdge(g, tail)
		b.SetReport(tail, int32(i))
	}
	a := b.MustBuild()
	// A self-looping split needs k copies in a clique plus k(max-k)
	// partition slots: 9 non-self successors fit at max=6 (k=3), not 5.
	if _, err := LimitFanOut(a, 5); err == nil {
		t.Fatal("limit 5 should be unsatisfiable for a 10-way self-loop state")
	}
	lim, err := LimitFanOut(a, 6)
	if err != nil {
		t.Fatal(err)
	}
	if maxFanOut(lim) > 6 {
		t.Fatalf("fan-out still %d", maxFanOut(lim))
	}
	in := []byte{'q', 'q', 'c'}
	if !sameReports(reportsOf(a, in), reportsOf(lim, in)) {
		t.Fatal("self-loop split changed behaviour")
	}
}

func TestLimitFanOutErrors(t *testing.T) {
	a := compile(t, "abc")
	if _, err := LimitFanOut(a, 1); err == nil {
		t.Fatal("limit 1 accepted")
	}
	// A self-loop state with enormous fan-out cannot satisfy a tiny limit.
	b := automata.NewBuilder()
	g := b.AddSTE(charset.All(), automata.StartAllInput)
	b.AddEdge(g, g)
	for i := 0; i < 200; i++ {
		tail := b.AddSTE(charset.Single(byte(i)), automata.StartNone)
		b.AddEdge(g, tail)
	}
	if _, err := LimitFanOut(b.MustBuild(), 3); err == nil {
		t.Fatal("unsatisfiable self-loop limit accepted")
	}
}

// maxFanOut returns the largest STE out-degree in a.
func maxFanOut(a *automata.Automaton) int {
	best := 0
	for i := 0; i < a.NumStates(); i++ {
		best = max(best, a.OutDegree(automata.StateID(i)))
	}
	return best
}
