package stats

import (
	"math"
	"strings"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
)

func buildTwoChains(t *testing.T) *automata.Automaton {
	t.Helper()
	b := automata.NewBuilder()
	// Chain 1: 3 states.
	s0 := b.AddSTE(charset.Single('a'), automata.StartAllInput)
	s1 := b.AddSTE(charset.Single('b'), automata.StartNone)
	s2 := b.AddSTE(charset.Single('c'), automata.StartNone)
	b.AddEdge(s0, s1)
	b.AddEdge(s1, s2)
	b.SetReport(s2, 1)
	// Chain 2: 1 state.
	s3 := b.AddSTE(charset.Single('z'), automata.StartAllInput)
	b.SetReport(s3, 2)
	return b.MustBuild()
}

func TestComputeStatic(t *testing.T) {
	a := buildTwoChains(t)
	s := Compute(a)
	if s.States != 4 || s.Edges != 2 {
		t.Fatalf("states=%d edges=%d", s.States, s.Edges)
	}
	if s.Subgraphs != 2 {
		t.Fatalf("subgraphs=%d", s.Subgraphs)
	}
	if s.AvgSize != 2.0 {
		t.Fatalf("avg=%v", s.AvgSize)
	}
	if math.Abs(s.StdDevSize-1.0) > 1e-9 {
		t.Fatalf("std=%v", s.StdDevSize)
	}
	if s.EdgesPerNode != 0.5 {
		t.Fatalf("e/n=%v", s.EdgesPerNode)
	}
	if s.StartStates != 2 || s.ReportStates != 2 || s.Counters != 0 {
		t.Fatalf("aux stats: %+v", s)
	}
}

func TestCompress(t *testing.T) {
	// Two identical non-reporting prefixes merge.
	b := automata.NewBuilder()
	for i := 0; i < 2; i++ {
		s0 := b.AddSTE(charset.Single('a'), automata.StartAllInput)
		s1 := b.AddSTE(charset.Single('b'), automata.StartNone)
		b.AddEdge(s0, s1)
		b.SetReport(s1, int32(i))
	}
	a := b.MustBuild()
	c := Compress(a)
	if c.CompressedStates != 3 {
		t.Fatalf("compressed=%d want 3", c.CompressedStates)
	}
	if math.Abs(c.Factor-0.25) > 1e-9 {
		t.Fatalf("factor=%v want 0.25", c.Factor)
	}
}

// observeWhole is ObserveSegmentsHooked with no hooks, failing t on an
// error.
func observeWhole(t *testing.T, a *automata.Automaton, segments [][]byte) Dynamic {
	t.Helper()
	d, err := ObserveSegmentsHooked(a, segments, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSimulateDynamic(t *testing.T) {
	a := buildTwoChains(t)
	d := observeWhole(t, a, [][]byte{[]byte("abcz")})
	if d.Symbols != 4 {
		t.Fatalf("symbols=%d", d.Symbols)
	}
	if d.Reports != 2 {
		t.Fatalf("reports=%d", d.Reports)
	}
	if d.ActiveSet <= 0 || d.EnabledSet < 0 {
		t.Fatalf("dynamic: %+v", d)
	}
	if d.ReportRate != 0.5 {
		t.Fatalf("rate=%v", d.ReportRate)
	}
}

func TestRowFormat(t *testing.T) {
	a := buildTwoChains(t)
	r := Row{
		Name:        "TestBench",
		Domain:      "Unit Testing",
		Input:       "inline",
		Static:      Compute(a),
		Compression: Compress(a),
		Dynamic:     observeWhole(t, a, [][]byte{[]byte("abcz")}),
	}
	line := r.Format()
	if !strings.Contains(line, "TestBench") || !strings.Contains(line, "Unit Testing") {
		t.Fatalf("format: %q", line)
	}
	h := Header()
	if !strings.Contains(h, "States") || !strings.Contains(h, "ActiveSet") {
		t.Fatalf("header: %q", h)
	}
}

func TestEmptyAutomaton(t *testing.T) {
	b := automata.NewBuilder()
	a := b.MustBuild()
	s := Compute(a)
	if s.States != 0 || s.EdgesPerNode != 0 || s.AvgSize != 0 {
		t.Fatalf("empty stats: %+v", s)
	}
}
