package automata

import (
	"bytes"
	"strings"
	"testing"

	"automatazoo/internal/charset"
)

// buildChain builds a linear automaton matching the literal s, with a
// start-all-input head and a reporting tail.
func buildChain(t *testing.T, s string) *Automaton {
	t.Helper()
	b := NewBuilder()
	var prev StateID = NoState
	for i := 0; i < len(s); i++ {
		st := StartNone
		if i == 0 {
			st = StartAllInput
		}
		id := b.AddSTE(charset.Single(s[i]), st)
		if prev != NoState {
			b.AddEdge(prev, id)
		}
		prev = id
	}
	b.SetReport(prev, 7)
	a, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return a
}

func TestBuilderBasics(t *testing.T) {
	a := buildChain(t, "abc")
	if a.NumStates() != 3 {
		t.Fatalf("states=%d", a.NumStates())
	}
	if a.NumEdges() != 2 {
		t.Fatalf("edges=%d", a.NumEdges())
	}
	if a.Start(0) != StartAllInput || a.Start(1) != StartNone {
		t.Fatal("start types wrong")
	}
	if !a.IsReport(2) || a.ReportCode(2) != 7 {
		t.Fatal("report wrong")
	}
	if a.IsReport(0) {
		t.Fatal("state 0 should not report")
	}
	if !a.Class(0).Contains('a') || a.Class(0).Count() != 1 {
		t.Fatal("class wrong")
	}
	if got := a.Succ(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("succ(0)=%v", got)
	}
	if len(a.Succ(2)) != 0 {
		t.Fatal("tail should have no successors")
	}
	if st := a.Starts(); len(st) != 1 || st[0] != 0 {
		t.Fatalf("starts=%v", st)
	}
	if rp := a.Reports(); len(rp) != 1 || rp[0] != 2 {
		t.Fatalf("reports=%v", rp)
	}
}

func TestBuildDeduplicatesEdges(t *testing.T) {
	b := NewBuilder()
	x := b.AddSTE(charset.Single('x'), StartAllInput)
	y := b.AddSTE(charset.Single('y'), StartNone)
	b.AddEdge(x, y)
	b.AddEdge(x, y)
	b.AddEdge(x, y)
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != 1 {
		t.Fatalf("duplicate edges survived: %d", a.NumEdges())
	}
}

// TestBuildAllocsConstant pins the in-place CSR freeze: Build allocates the
// frozen arrays and nothing per state. Every state of the chain carries a
// duplicate edge, so the sort-and-compact path runs for each. Measured:
// 9 allocations at either size; the per-state scratch slice and sort.Slice
// swapper this replaced cost 2 016 at 1 000 states and 20 023 at 10 000.
func TestBuildAllocsConstant(t *testing.T) {
	chain := func(n int) *Builder {
		b := NewBuilder()
		for i := 0; i < n; i++ {
			st := StartNone
			if i == 0 {
				st = StartAllInput
			}
			id := b.AddSTE(charset.Single('a'), st)
			if i > 0 {
				b.AddEdge(id-1, id)
				b.AddEdge(id-1, id)
			}
		}
		return b
	}
	allocs := func(n int) float64 {
		b := chain(n)
		v := testing.AllocsPerRun(5, func() { b.MustBuild() })
		t.Logf("n=%d allocs=%.0f", n, v)
		return v
	}
	small, large := allocs(1000), allocs(10000)
	if small != large || large > 12 {
		t.Fatalf("Build allocated %.0f objects for 1 000 states and %.0f for 10 000; want the same small constant", small, large)
	}
}

func TestBuildRejectsOutOfRangeEdge(t *testing.T) {
	b := NewBuilder()
	x := b.AddSTE(charset.Single('x'), StartAllInput)
	b.AddEdge(x, 99)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected out-of-range edge error")
	}
}

func TestBuildRejectsZeroCounterTarget(t *testing.T) {
	b := NewBuilder()
	b.AddCounter(0, CountRollover)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected zero-target counter error")
	}
}

func TestCounterConfig(t *testing.T) {
	b := NewBuilder()
	s := b.AddSTE(charset.All(), StartAllInput)
	c := b.AddCounter(5, CountLatch)
	b.AddEdge(s, c)
	b.SetReport(c, 1)
	a := b.MustBuild()
	if a.Kind(c) != KindCounter || a.Kind(s) != KindSTE {
		t.Fatal("kinds wrong")
	}
	cfg, ok := a.CounterConfig(c)
	if !ok || cfg.Target != 5 || cfg.Mode != CountLatch {
		t.Fatalf("counter config wrong: %+v ok=%v", cfg, ok)
	}
	if a.NumCounters() != 1 {
		t.Fatalf("NumCounters=%d", a.NumCounters())
	}
	if !a.Class(c).IsEmpty() {
		t.Fatal("counter class should be empty")
	}
}

func TestSetStartAndClassMutation(t *testing.T) {
	b := NewBuilder()
	id := b.AddSTE(charset.Single('a'), StartNone)
	b.SetStart(id, StartOfData)
	if b.Start(id) != StartOfData {
		t.Fatal("SetStart failed")
	}
	if !b.Class(id).Contains('a') || b.Class(id).Contains('z') {
		t.Fatal("SetStart disturbed the class")
	}
	a := b.MustBuild()
	if a.Start(id) != StartOfData {
		t.Fatal("frozen start type wrong")
	}
}

func TestReverse(t *testing.T) {
	b := NewBuilder()
	x := b.AddSTE(charset.Single('x'), StartAllInput)
	y := b.AddSTE(charset.Single('y'), StartNone)
	z := b.AddSTE(charset.Single('z'), StartNone)
	b.AddEdge(x, z)
	b.AddEdge(y, z)
	a := b.MustBuild()
	pred := a.Reverse()
	if len(pred[z]) != 2 {
		t.Fatalf("pred(z)=%v", pred[z])
	}
	if len(pred[x]) != 0 || len(pred[y]) != 0 {
		t.Fatal("roots should have no predecessors")
	}
}

func TestMerge(t *testing.T) {
	a1 := buildChain(t, "ab")
	a2 := buildChain(t, "cd")
	b := NewBuilder()
	off1 := b.Merge(a1, 0)
	off2 := b.Merge(a2, 100)
	if off1 != 0 || off2 != 2 {
		t.Fatalf("offsets %d %d", off1, off2)
	}
	m := b.MustBuild()
	if m.NumStates() != 4 || m.NumEdges() != 2 {
		t.Fatalf("merged states=%d edges=%d", m.NumStates(), m.NumEdges())
	}
	if m.ReportCode(1) != 7 || m.ReportCode(3) != 107 {
		t.Fatalf("codes %d %d", m.ReportCode(1), m.ReportCode(3))
	}
	if len(m.Starts()) != 2 {
		t.Fatalf("starts=%v", m.Starts())
	}
}

func TestMergePreservesCounters(t *testing.T) {
	b1 := NewBuilder()
	s := b1.AddSTE(charset.All(), StartAllInput)
	c := b1.AddCounter(9, CountRollover)
	b1.AddEdge(s, c)
	a1 := b1.MustBuild()

	b2 := NewBuilder()
	off := b2.Merge(a1, 0)
	m := b2.MustBuild()
	cfg, ok := m.CounterConfig(off + c)
	if !ok || cfg.Target != 9 {
		t.Fatalf("merged counter lost: %+v ok=%v", cfg, ok)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder()
	// Two disjoint chains and one isolated state.
	a0 := b.AddSTE(charset.Single('a'), StartAllInput)
	a1 := b.AddSTE(charset.Single('b'), StartNone)
	b.AddEdge(a0, a1)
	c0 := b.AddSTE(charset.Single('c'), StartAllInput)
	c1 := b.AddSTE(charset.Single('d'), StartNone)
	c2 := b.AddSTE(charset.Single('e'), StartNone)
	b.AddEdge(c0, c1)
	b.AddEdge(c1, c2)
	b.AddSTE(charset.Single('z'), StartAllInput)
	a := b.MustBuild()
	sizes, comp := a.Components()
	if len(sizes) != 3 {
		t.Fatalf("components=%d", len(sizes))
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != a.NumStates() {
		t.Fatalf("component sizes sum %d != states %d", total, a.NumStates())
	}
	if comp[a0] != comp[a1] || comp[c0] != comp[c1] || comp[c1] != comp[c2] {
		t.Fatal("connected states in different components")
	}
	if comp[a0] == comp[c0] {
		t.Fatal("disjoint chains share a component")
	}
}

func TestComponentsUndirected(t *testing.T) {
	// x -> z <- y : all one weak component even though y is not reachable
	// from x following edge direction.
	b := NewBuilder()
	x := b.AddSTE(charset.Single('x'), StartAllInput)
	y := b.AddSTE(charset.Single('y'), StartAllInput)
	z := b.AddSTE(charset.Single('z'), StartNone)
	b.AddEdge(x, z)
	b.AddEdge(y, z)
	a := b.MustBuild()
	sizes, _ := a.Components()
	if len(sizes) != 1 || sizes[0] != 3 {
		t.Fatalf("sizes=%v", sizes)
	}
}

func TestReachableFromStarts(t *testing.T) {
	b := NewBuilder()
	s := b.AddSTE(charset.Single('a'), StartAllInput)
	r := b.AddSTE(charset.Single('b'), StartNone)
	dead := b.AddSTE(charset.Single('c'), StartNone)
	b.AddEdge(s, r)
	_ = dead
	a := b.MustBuild()
	reach := a.ReachableFromStarts()
	if !reach[s] || !reach[r] {
		t.Fatal("reachable states not found")
	}
	if reach[dead] {
		t.Fatal("dead state marked reachable")
	}
}

func TestWriteDot(t *testing.T) {
	a := buildChain(t, "ab")
	var buf bytes.Buffer
	if err := a.WriteDot(&buf, "chain"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"digraph", "n0", "n1", "n0 -> n1", "peripheries=2"} {
		if !strings.Contains(out, frag) {
			t.Errorf("dot output missing %q:\n%s", frag, out)
		}
	}
}

func TestStartTypeString(t *testing.T) {
	if StartNone.String() != "none" || StartOfData.String() != "start-of-data" ||
		StartAllInput.String() != "all-input" {
		t.Fatal("StartType strings wrong")
	}
	if StartType(9).String() == "" {
		t.Fatal("unknown StartType should still render")
	}
}

func TestMemoryFootprintPositive(t *testing.T) {
	a := buildChain(t, "hello")
	if a.MemoryFootprint() <= 0 {
		t.Fatal("footprint should be positive")
	}
}

func TestWithoutStarts(t *testing.T) {
	b := NewBuilder()
	x := b.AddSTE(charset.Single('x'), StartAllInput)
	y := b.AddSTE(charset.Single('y'), StartOfData)
	z := b.AddSTE(charset.Single('z'), StartAllInput)
	b.AddEdge(x, y)
	b.SetReport(z, 4)
	a := b.MustBuild()
	w := a.WithoutStarts([]StateID{x})
	if w.Start(x) != StartNone || w.Start(y) != StartOfData || w.Start(z) != StartAllInput {
		t.Fatalf("start types %v %v %v", w.Start(x), w.Start(y), w.Start(z))
	}
	if got := w.Starts(); len(got) != 2 || got[0] != y || got[1] != z {
		t.Fatalf("Starts()=%v want [%d %d]", got, y, z)
	}
	if a.Start(x) != StartAllInput || len(a.Starts()) != 3 {
		t.Fatal("WithoutStarts changed the original")
	}
	if !w.IsReport(z) || w.ReportCode(z) != 4 || len(w.Succ(x)) != 1 || w.NumStates() != 3 {
		t.Fatal("WithoutStarts lost a report, an edge or a state")
	}
}
