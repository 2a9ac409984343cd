package spm

import (
	"bytes"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/randx"
	"automatazoo/internal/sim"
)

// stream builds an itemset stream from explicit itemsets.
func stream(sets ...[]byte) []byte {
	var out []byte
	for _, s := range sets {
		out = append(out, s...)
		out = append(out, Sep)
	}
	return out
}

func buildOne(t *testing.T, pat Pattern, cfg Config) *automata.Automaton {
	t.Helper()
	b := automata.NewBuilder()
	if err := Build(b, pat, cfg, 7); err != nil {
		t.Fatal(err)
	}
	return b.MustBuild()
}

func countReports(a *automata.Automaton, input []byte) int64 {
	return sim.New(a).Run(input).Reports
}

func TestSimpleSequenceMatch(t *testing.T) {
	pat := Pattern{Items: []byte{5, 9}}
	a := buildOne(t, pat, Config{})
	// 5 in itemset 1, 9 in itemset 2 → one completing itemset.
	in := stream([]byte{5}, []byte{9})
	if got := countReports(a, in); got != 1 {
		t.Fatalf("reports=%d want 1", got)
	}
}

func TestSameItemsetDoesNotMatch(t *testing.T) {
	pat := Pattern{Items: []byte{5, 9}}
	a := buildOne(t, pat, Config{})
	// 5 and 9 in the SAME itemset: the pattern needs strictly later.
	if got := countReports(a, stream([]byte{5, 9})); got != 0 {
		t.Fatalf("same-itemset matched: %d", got)
	}
}

func TestGapItemsetsAllowed(t *testing.T) {
	pat := Pattern{Items: []byte{5, 9}}
	a := buildOne(t, pat, Config{})
	in := stream([]byte{5}, []byte{1, 2}, []byte{30}, []byte{9})
	if got := countReports(a, in); got != 1 {
		t.Fatalf("gapped match: reports=%d want 1", got)
	}
}

func TestSupersetItemsetsMatch(t *testing.T) {
	pat := Pattern{Items: []byte{5, 9}}
	a := buildOne(t, pat, Config{})
	// Items inside larger sorted itemsets.
	in := stream([]byte{2, 5, 11}, []byte{1, 9, 60})
	if got := countReports(a, in); got != 1 {
		t.Fatalf("superset match: reports=%d want 1", got)
	}
}

func TestOrderMatters(t *testing.T) {
	pat := Pattern{Items: []byte{5, 9}}
	a := buildOne(t, pat, Config{})
	if got := countReports(a, stream([]byte{9}, []byte{5})); got != 0 {
		t.Fatalf("reversed order matched: %d", got)
	}
}

func TestReportPerCompletingItemset(t *testing.T) {
	pat := Pattern{Items: []byte{5, 9}}
	a := buildOne(t, pat, Config{})
	// Two itemsets with 9 after one with 5 → two completions.
	in := stream([]byte{5}, []byte{9}, []byte{9})
	if got := countReports(a, in); got != 2 {
		t.Fatalf("reports=%d want 2", got)
	}
}

func TestThreePositionPattern(t *testing.T) {
	pat := Pattern{Items: []byte{3, 3, 7}}
	a := buildOne(t, pat, Config{})
	// Needs 3, later 3, later 7.
	if got := countReports(a, stream([]byte{3}, []byte{3}, []byte{7})); got != 1 {
		t.Fatalf("reports=%d", got)
	}
	if got := countReports(a, stream([]byte{3}, []byte{7})); got != 0 {
		t.Fatalf("incomplete matched: %d", got)
	}
}

func TestStatesPerFilter(t *testing.T) {
	pat := RandomPattern(randx.New(1), 6)
	for _, c := range []struct {
		cfg  Config
		want int
	}{
		{Config{}, 30},
		{Config{Padding: 4}, 50},
		{Config{WithCounter: true, SupportThreshold: 8}, 31},
		{Config{Padding: 4, WithCounter: true, SupportThreshold: 8}, 51},
	} {
		a := buildOne(t, pat, c.cfg)
		if a.NumStates() != c.want {
			t.Errorf("cfg %+v: states=%d want %d", c.cfg, a.NumStates(), c.want)
		}
	}
}

func TestPaddingDoesNotChangeKernel(t *testing.T) {
	rng := randx.New(33)
	for trial := 0; trial < 10; trial++ {
		pat := RandomPattern(rng, 3)
		plain := buildOne(t, pat, Config{})
		padded := buildOne(t, pat, Config{Padding: 4})
		in := Input([]Pattern{pat}, 200, 4, 11, uint64(trial))
		if g, w := countReports(padded, in), countReports(plain, in); g != w {
			t.Fatalf("trial %d: padded=%d plain=%d", trial, g, w)
		}
	}
}

func TestPaddingInflatesEnabledSet(t *testing.T) {
	pat := Pattern{Items: []byte{20, 40}}
	plain := buildOne(t, pat, Config{})
	padded := buildOne(t, pat, Config{Padding: 4})
	in := Input([]Pattern{pat}, 500, 4, 7, 5)
	ep := sim.New(plain)
	sp := ep.Run(in)
	eq := sim.New(padded)
	sq := eq.Run(in)
	if sq.Enabled <= sp.Enabled {
		t.Fatalf("padding should inflate enabled set: plain=%d padded=%d",
			sp.Enabled, sq.Enabled)
	}
}

func TestCounterVariant(t *testing.T) {
	pat := Pattern{Items: []byte{5, 9}}
	a := buildOne(t, pat, Config{WithCounter: true, SupportThreshold: 3})
	// Support 2 < threshold 3 → no report.
	in := stream([]byte{5}, []byte{9}, []byte{9})
	if got := countReports(a, in); got != 0 {
		t.Fatalf("reported below threshold: %d", got)
	}
	// Support 3 → exactly one report (latched).
	in = stream([]byte{5}, []byte{9}, []byte{9}, []byte{9}, []byte{9})
	if got := countReports(a, in); got != 1 {
		t.Fatalf("counter reports=%d want 1", got)
	}
}

func TestBenchmarkShape(t *testing.T) {
	a, err := Benchmark(10, 6, Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	sizes, _ := a.Components()
	if len(sizes) != 10 {
		t.Fatalf("subgraphs=%d", len(sizes))
	}
	if a.NumStates() != 300 {
		t.Fatalf("states=%d", a.NumStates())
	}
	awc, err := Benchmark(10, 6, Config{WithCounter: true, SupportThreshold: 16}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if awc.NumStates() != 310 || awc.NumCounters() != 10 {
		t.Fatalf("wC states=%d counters=%d", awc.NumStates(), awc.NumCounters())
	}
}

func TestInputWellFormed(t *testing.T) {
	pats := []Pattern{RandomPattern(randx.New(2), 4)}
	in := Input(pats, 100, 5, 9, 7)
	if len(in) == 0 || in[len(in)-1] != Sep {
		t.Fatal("input should end with a separator")
	}
	// No PadItem may appear, itemsets are sorted, items in range.
	cur := []byte{}
	for _, c := range in {
		if c == Sep {
			for i := 1; i < len(cur); i++ {
				if cur[i] <= cur[i-1] {
					t.Fatalf("itemset not strictly sorted: %v", cur)
				}
			}
			cur = cur[:0]
			continue
		}
		if c == PadItem {
			t.Fatal("reserved pad item in input")
		}
		if c == 0 || c > MaxItem {
			t.Fatalf("item %d out of range", c)
		}
		cur = append(cur, c)
	}
	if !bytes.Contains(in, []byte{pats[0].Items[0]}) {
		t.Fatal("planted pattern items missing entirely")
	}
}

func TestPlantedPatternsAreFound(t *testing.T) {
	rng := randx.New(12)
	pats := []Pattern{RandomPattern(rng, 3), RandomPattern(rng, 3)}
	b := automata.NewBuilder()
	for i, p := range pats {
		if err := Build(b, p, Config{}, int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	a := b.MustBuild()
	in := Input(pats, 400, 4, 13, 99)
	e := sim.New(a)
	found := map[int32]bool{}
	e.OnReport = func(r sim.Report) { found[r.Code] = true }
	e.Run(in)
	for i := range pats {
		if !found[int32(i)] {
			t.Errorf("pattern %d never matched its planted support", i)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	b := automata.NewBuilder()
	if err := Build(b, Pattern{}, Config{}, 0); err == nil {
		t.Error("empty pattern accepted")
	}
	if err := Build(b, Pattern{Items: []byte{99}}, Config{}, 0); err == nil {
		t.Error("out-of-range item accepted")
	}
	if err := Build(b, Pattern{Items: []byte{5}}, Config{WithCounter: true}, 0); err == nil {
		t.Error("counter without threshold accepted")
	}
}
