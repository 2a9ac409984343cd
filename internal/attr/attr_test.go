package attr

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/telemetry"
)

// chain appends a literal STE chain for lit to b and returns the report
// state. Each chain is one weakly-connected component.
func chain(b *automata.Builder, lit string, code int32) automata.StateID {
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
	return prev
}

func TestRangesDedupeAndEmpty(t *testing.T) {
	var r Ranges
	r.Tag("a", 0, 2)
	r.Tag("b", 2, 2) // empty: dropped
	r.Tag("a", 2, 4) // repeated name: same pattern, new range
	r.Tag("c", 4, 5)
	p := r.Provenance(5)
	if p.NumPatterns() != 2 {
		t.Fatalf("patterns=%d want 2 (repeated name must not fork, empty must drop)", p.NumPatterns())
	}
	if got := p.patterns[0].Name; got != "a" {
		t.Fatalf("pattern 0 = %q", got)
	}
	for s := 0; s < 4; s++ {
		if got := p.Origins(automata.StateID(s)); !reflect.DeepEqual(got, []int32{0}) {
			t.Fatalf("state %d origins=%v want [0]", s, got)
		}
	}
	if got := p.Origins(4); !reflect.DeepEqual(got, []int32{1}) {
		t.Fatalf("state 4 origins=%v want [1]", got)
	}
}

func TestProvenanceOverlapSortedDeduped(t *testing.T) {
	var r Ranges
	r.Tag("y", 1, 3)
	r.Tag("x", 0, 2)
	r.Tag("x", 1, 2) // overlaps its own earlier range: state 1 must stay deduped
	p := r.Provenance(3)
	if got := p.Origins(1); !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("state 1 origins=%v want sorted deduped [0 1]", got)
	}
	if got := p.Label(1); got != "y+1" {
		t.Fatalf("label=%q want %q (first origin name + merge count)", got, "y+1")
	}
	if got := p.Label(0); got != "x" {
		t.Fatalf("label=%q want %q", got, "x")
	}
	if got := p.Origins(automata.StateID(99)); got != nil {
		t.Fatalf("out-of-range origins=%v want nil", got)
	}
}

func TestUnionIDs(t *testing.T) {
	cases := []struct{ a, b, want []int32 }{
		{nil, nil, nil},
		{[]int32{1, 3}, nil, []int32{1, 3}},
		{nil, []int32{2}, []int32{2}},
		{[]int32{1, 3}, []int32{2, 3, 5}, []int32{1, 2, 3, 5}},
		{[]int32{0}, []int32{0}, []int32{0}},
	}
	for _, c := range cases {
		if got := unionIDs(c.a, c.b); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("unionIDs(%v, %v)=%v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestApplyMergesAndDrops(t *testing.T) {
	var r Ranges
	r.Tag("p0", 0, 2)
	r.Tag("p1", 2, 4)
	p := r.Provenance(4)
	// Merge states 0 and 2 into new state 0, keep 1→1, drop state 3.
	remap := []automata.StateID{0, 1, 0, automata.NoState}
	q := p.Apply(remap, 2)
	if got := q.Origins(0); !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("merged origins=%v want [0 1]", got)
	}
	if got := q.Origins(1); !reflect.DeepEqual(got, []int32{0}) {
		t.Fatalf("kept origins=%v want [0]", got)
	}
	if q.NumStates() != 2 {
		t.Fatalf("states=%d want 2", q.NumStates())
	}
}

func TestApplyMultiReplicates(t *testing.T) {
	var r Ranges
	r.Tag("p0", 0, 1)
	r.Tag("p1", 1, 2)
	p := r.Provenance(2)
	copies := [][]automata.StateID{{0, 2}, {1}}
	q := p.ApplyMulti(copies, 3)
	for _, s := range []automata.StateID{0, 2} {
		if got := q.Origins(s); !reflect.DeepEqual(got, []int32{0}) {
			t.Fatalf("replica %d origins=%v want [0]", s, got)
		}
	}
	if got := q.Origins(1); !reflect.DeepEqual(got, []int32{1}) {
		t.Fatalf("state 1 origins=%v want [1]", got)
	}
}

func TestFromComponents(t *testing.T) {
	b := automata.NewBuilder()
	chain(b, "ab", 7)
	chain(b, "cd", 3)
	a := b.MustBuild()
	p := FromComponents(a, "comp")
	if p.NumPatterns() != 2 {
		t.Fatalf("patterns=%d want 2", p.NumPatterns())
	}
	names := []string{p.patterns[0].Name, p.patterns[1].Name}
	for _, n := range names {
		if !strings.HasPrefix(n, "comp") || !strings.Contains(n, "code=") {
			t.Fatalf("component name %q missing prefix or report code", n)
		}
	}
	for s := 0; s < a.NumStates(); s++ {
		if len(p.Origins(automata.StateID(s))) != 1 {
			t.Fatalf("state %d not attributed to exactly one component", s)
		}
	}
}

// buildTwo returns a two-chain automaton with tagged provenance.
func buildTwo(t *testing.T) (*automata.Automaton, *Provenance) {
	t.Helper()
	b := automata.NewBuilder()
	var r Ranges
	chain(b, "ab", 1)
	r.Tag("alpha", 0, b.NumStates())
	lo := b.NumStates()
	chain(b, "cd", 2)
	r.Tag("beta", lo, b.NumStates())
	return b.MustBuild(), r.Provenance(b.NumStates())
}

func TestCollectorFoldAndReportExactness(t *testing.T) {
	a, prov := buildTwo(t)
	c := NewCollector(a, prov)
	if len(c.compPats) != 2 {
		t.Fatalf("components=%d want 2", len(c.compPats))
	}
	led := c.Ledger(c.GlobalCompOf())
	led.Activate(0) // alpha's component
	led.Activate(0)
	led.Activate(2) // beta's component
	led.AddBytesAll(10)
	led.Report(1)
	led.Report(1)
	led.Report(2)
	led.Report(99) // unknown code: unattributed bucket
	led.Commit()

	rows := c.Fold()
	byName := map[string]Cost{}
	var totalReports int64
	for _, r := range rows {
		byName[r.Name] = r
		totalReports += r.Reports
	}
	if totalReports != 4 {
		t.Fatalf("report identity broken: sum=%d want 4", totalReports)
	}
	if byName["alpha"].Reports != 2 || byName["beta"].Reports != 1 || byName[Unattributed].Reports != 1 {
		t.Fatalf("report split wrong: %+v", byName)
	}
	if byName["alpha"].Work != 2 || byName["beta"].Work != 1 {
		t.Fatalf("work split wrong: %+v", byName)
	}
	if byName["alpha"].Bytes != 10 || byName["beta"].Bytes != 10 {
		t.Fatalf("bytes split wrong: %+v", byName)
	}
	// alpha: cost 12 > beta: cost 11 — canonical order.
	if rows[0].Name != "alpha" || rows[1].Name != "beta" {
		t.Fatalf("canonical sort broken: %v, %v", rows[0], rows[1])
	}
}

func TestLedgerCommitCommutes(t *testing.T) {
	a, prov := buildTwo(t)
	run := func(order []int) []Cost {
		c := NewCollector(a, prov)
		l1, l2 := c.Ledger(c.GlobalCompOf()), c.Ledger(c.GlobalCompOf())
		l1.AddWork(0, 5)
		l1.Report(1)
		l2.AddWork(1, 3)
		l2.Report(2)
		leds := []*Ledger{l1, l2}
		for _, i := range order {
			leds[i].Commit()
		}
		return c.Fold()
	}
	if !reflect.DeepEqual(run([]int{0, 1}), run([]int{1, 0})) {
		t.Fatal("fold depends on commit order")
	}
}

func TestLedgerDiscard(t *testing.T) {
	a, prov := buildTwo(t)
	c := NewCollector(a, prov)
	led := c.Ledger(c.GlobalCompOf())
	led.AddWork(0, 100)
	led.Report(1)
	led.Discard()
	led.Commit()
	for _, r := range c.Fold() {
		if r.Cost != 0 || r.Reports != 0 {
			t.Fatalf("discarded work leaked into fold: %+v", r)
		}
	}
}

func TestCacheHighWater(t *testing.T) {
	a, prov := buildTwo(t)
	c := NewCollector(a, prov)
	led := c.Ledger(c.GlobalCompOf())
	led.SetCacheBytes(0, 100)
	led.Commit()
	led.SetCacheBytes(0, 40) // lower level later must not raise the mark
	led.Commit()
	rows := c.Fold()
	var alpha Cost
	for _, r := range rows {
		if r.Name == "alpha" {
			alpha = r
		}
	}
	if alpha.CacheBytes != 100 {
		t.Fatalf("cache bytes=%d want high-water 100", alpha.CacheBytes)
	}
}

func TestTopAndTopOffender(t *testing.T) {
	rows := []Cost{
		{ID: 3, Name: Unattributed, Cost: 50},
		{ID: 0, Name: "a", Cost: 10},
		{ID: 1, Name: "b", Cost: 5},
	}
	if got := Top(rows, 2); len(got) != 2 {
		t.Fatalf("Top(2) len=%d", len(got))
	}
	if got := Top(rows, 0); len(got) != 3 {
		t.Fatalf("Top(0) must return all, got %d", len(got))
	}
}

func TestWriteTextDeterministic(t *testing.T) {
	a, prov := buildTwo(t)
	c := NewCollector(a, prov)
	led := c.Ledger(c.GlobalCompOf())
	led.AddBytesAll(7)
	led.Report(1)
	led.Commit()
	var b1, b2 bytes.Buffer
	if err := WriteText(&b1, c.Fold()); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&b2, c.Fold()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("WriteText not reproducible for identical folds")
	}
	if !strings.Contains(b1.String(), "alpha") {
		t.Fatalf("rendered table missing pattern name:\n%s", b1.String())
	}
}

func TestPublish(t *testing.T) {
	a, prov := buildTwo(t)
	c := NewCollector(a, prov)
	led := c.Ledger(c.GlobalCompOf())
	led.AddWork(0, 4)
	led.Report(1)
	led.Commit()
	reg := telemetry.NewRegistry()
	c.Publish(reg, 5)
	if got := reg.Counter("attr.work.alpha").Value(); got != 4 {
		t.Fatalf("attr.work.alpha=%d want 4", got)
	}
	if got := reg.Counter("attr.reports.alpha").Value(); got != 1 {
		t.Fatalf("attr.reports.alpha=%d want 1", got)
	}
	c.Publish(nil, 5) // nil registry must be a no-op, not a panic
}
