package mesh

import (
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/randx"
	"automatazoo/internal/sim"
)

// hammingEnds returns ground-truth match end offsets: j such that the
// window text[j-l+1..j] has ≤ d mismatches against pattern.
func hammingEnds(text, pattern []byte, d int) map[int64]bool {
	l := len(pattern)
	out := map[int64]bool{}
	for j := l - 1; j < len(text); j++ {
		miss := 0
		for i := 0; i < l; i++ {
			if text[j-l+1+i] != pattern[i] {
				miss++
			}
		}
		if miss <= d {
			out[int64(j)] = true
		}
	}
	return out
}

// levenshteinEnds returns ground-truth infix-search end offsets via the
// Sellers DP: j such that min over i of edit(pattern, text[i..j]) ≤ d.
func levenshteinEnds(text, pattern []byte, d int) map[int64]bool {
	l := len(pattern)
	prev := make([]int, l+1)
	cur := make([]int, l+1)
	for i := 0; i <= l; i++ {
		prev[i] = i
	}
	out := map[int64]bool{}
	// Matches may not be empty: a "window" must consume ≥ 1 symbol, which
	// is guaranteed by d < l (an empty window has distance l > d).
	for j := 0; j < len(text); j++ {
		cur[0] = 0
		for i := 1; i <= l; i++ {
			cost := 1
			if pattern[i-1] == text[j] {
				cost = 0
			}
			m := prev[i-1] + cost        // match/substitute
			if v := prev[i] + 1; v < m { // insert into pattern view
				m = v
			}
			if v := cur[i-1] + 1; v < m { // delete pattern char
				m = v
			}
			cur[i] = m
		}
		if cur[l] <= d {
			out[int64(j)] = true
		}
		prev, cur = cur, prev
	}
	return out
}

// automatonEnds builds one filter and returns the distinct offsets at
// which it reports.
func automatonEnds(t *testing.T, kernel Kernel, pattern []byte, d int, text []byte) map[int64]bool {
	t.Helper()
	b := automata.NewBuilder()
	if err := kernel.Build(b, pattern, d, 0); err != nil {
		t.Fatal(err)
	}
	a := b.MustBuild()
	e := sim.New(a)
	out := map[int64]bool{}
	e.OnReport = func(r sim.Report) { out[r.Offset] = true }
	e.Run(text)
	return out
}

func sameSet(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestHammingExactWindow(t *testing.T) {
	pattern := []byte("atgc")
	got := automatonEnds(t, Hamming, pattern, 1, []byte("ccatgccc"))
	want := hammingEnds([]byte("ccatgccc"), pattern, 1)
	if !sameSet(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestHammingRandomizedEquivalence(t *testing.T) {
	rng := randx.New(101)
	for trial := 0; trial < 60; trial++ {
		l := 3 + rng.Intn(6)
		d := rng.Intn(l - 1)
		pattern := RandomDNA(rng, l)
		text := RandomDNA(rng, 200)
		got := automatonEnds(t, Hamming, pattern, d, text)
		want := hammingEnds(text, pattern, d)
		if !sameSet(got, want) {
			t.Fatalf("trial %d l=%d d=%d pattern=%s: got %d offsets want %d",
				trial, l, d, pattern, len(got), len(want))
		}
	}
}

func TestLevenshteinSimpleCases(t *testing.T) {
	pattern := []byte("atgc")
	text := []byte("xxatgcxx")
	got := automatonEnds(t, Levenshtein, pattern, 1, text)
	want := levenshteinEnds(text, pattern, 1)
	if !sameSet(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	// Deletion: "agc" should match "atgc" within d=1 → end offset at 'c'.
	text2 := []byte("ttagctt")
	got2 := automatonEnds(t, Levenshtein, pattern, 1, text2)
	if !got2[4] {
		t.Fatalf("deletion match missed: %v", got2)
	}
	// Insertion: "atXgc" within d=1.
	text3 := []byte("atxgc")
	got3 := automatonEnds(t, Levenshtein, pattern, 1, text3)
	if !got3[4] {
		t.Fatalf("insertion match missed: %v", got3)
	}
}

func TestLevenshteinRandomizedEquivalence(t *testing.T) {
	rng := randx.New(202)
	for trial := 0; trial < 60; trial++ {
		l := 3 + rng.Intn(5)
		d := rng.Intn(min(3, l-1)) + 0
		pattern := RandomDNA(rng, l)
		text := RandomDNA(rng, 150)
		got := automatonEnds(t, Levenshtein, pattern, d, text)
		want := levenshteinEnds(text, pattern, d)
		if !sameSet(got, want) {
			t.Fatalf("trial %d l=%d d=%d pattern=%s text=%s:\ngot  %v\nwant %v",
				trial, l, d, pattern, text, got, want)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// hammingStates is the closed-form state count of BuildHamming.
func hammingStates(l, d int) int { return l + d*d + 2*d*(l-d) }

func TestClosedFormStateCounts(t *testing.T) {
	rng := randx.New(5)
	for _, c := range []struct{ l, d int }{{18, 3}, {22, 5}, {31, 10}, {8, 2}} {
		b := automata.NewBuilder()
		if err := BuildHamming(b, RandomDNA(rng, c.l), c.d, 0); err != nil {
			t.Fatal(err)
		}
		if got, want := b.NumStates(), hammingStates(c.l, c.d); got != want {
			t.Errorf("Hamming(%d,%d) states=%d closed form %d", c.l, c.d, got, want)
		}
	}
	for _, c := range []struct{ l, d int }{{19, 3}, {24, 5}, {37, 10}, {8, 2}} {
		b := automata.NewBuilder()
		if err := BuildLevenshtein(b, RandomDNA(rng, c.l), c.d, 0); err != nil {
			t.Fatal(err)
		}
		// l match columns of (d+1) plus l error columns of d.
		if got, want := b.NumStates(), c.l*(2*c.d+1); got != want {
			t.Errorf("Levenshtein(%d,%d) states=%d closed form %d", c.l, c.d, got, want)
		}
	}
}

func TestParameterValidation(t *testing.T) {
	b := automata.NewBuilder()
	if err := BuildHamming(b, nil, 1, 0); err == nil {
		t.Error("empty pattern accepted")
	}
	if err := BuildHamming(b, []byte("at"), 2, 0); err == nil {
		t.Error("d >= l accepted")
	}
	if err := BuildLevenshtein(b, []byte("at"), -1, 0); err == nil {
		t.Error("negative d accepted")
	}
}

func TestBenchmarkConstruction(t *testing.T) {
	a, err := Benchmark(Hamming, 5, 10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sizes, _ := a.Components()
	if len(sizes) != 5 {
		t.Fatalf("subgraphs=%d want 5", len(sizes))
	}
	if a.NumStates() != 5*hammingStates(10, 2) {
		t.Fatalf("states=%d", a.NumStates())
	}
}

func TestBenchmarkDeterminism(t *testing.T) {
	a1, err := Benchmark(Levenshtein, 3, 8, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Benchmark(Levenshtein, 3, 8, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a1.NumStates() != a2.NumStates() || a1.NumEdges() != a2.NumEdges() {
		t.Fatal("same seed produced different benchmarks")
	}
}

func TestLevenshteinFanOutGrowsWithD(t *testing.T) {
	rng := randx.New(8)
	ratios := []float64{}
	for _, d := range []int{1, 3, 5} {
		b := automata.NewBuilder()
		if err := BuildLevenshtein(b, RandomDNA(rng, 12), d, 0); err != nil {
			t.Fatal(err)
		}
		a := b.MustBuild()
		ratios = append(ratios, float64(a.NumEdges())/float64(a.NumStates()))
	}
	if !(ratios[0] < ratios[1] && ratios[1] < ratios[2]) {
		t.Fatalf("edges/node should grow with d: %v", ratios)
	}
}

func TestMeasurePointShortFilterReportsOften(t *testing.T) {
	cfg := ProfileConfig{Filters: 4, InputSymbols: 20000, Trials: 2, Seed: 3}
	// A very short Hamming filter (l=6, d=2) matches constantly.
	p, err := MeasurePoint(Hamming, 6, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.ReportsPerMillion < 1000 {
		t.Fatalf("short filter rate=%v, expected frequent matches", p.ReportsPerMillion)
	}
}

func TestSelectLengthMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling sweep")
	}
	cfg := ProfileConfig{Filters: 4, InputSymbols: 50000, Trials: 2, Seed: 4}
	_, curve, err := SelectLength(Hamming, 2, 6, 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Rates must decrease (roughly exponentially) with length.
	for i := 1; i < len(curve); i++ {
		if curve[i].ReportsPerMillion > curve[i-1].ReportsPerMillion*1.5 {
			t.Fatalf("rate not decreasing: %v then %v",
				curve[i-1].ReportsPerMillion, curve[i].ReportsPerMillion)
		}
	}
}
