package prng

import (
	"math"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/randx"
	"automatazoo/internal/sim"
)

// A k-sided chain has k branches + k² sides and 2k² edges: Table I's
// 4-sided 20 states 32 edges, 8-sided 72/128.
func TestChainGeometry(t *testing.T) {
	for _, c := range []struct{ k, states, edges int }{{4, 20, 32}, {8, 72, 128}} {
		a, err := Benchmark(1, c.k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.NumStates() != c.states || a.NumEdges() != c.edges {
			t.Fatalf("k=%d: %d states %d edges, want %d/%d", c.k, a.NumStates(), a.NumEdges(), c.states, c.edges)
		}
	}
}

func TestBenchmarkScale(t *testing.T) {
	a, err := Benchmark(50, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	sizes, _ := a.Components()
	if len(sizes) != 50 {
		t.Fatalf("subgraphs=%d", len(sizes))
	}
}

func TestInvalidSides(t *testing.T) {
	if _, err := Benchmark(1, 3, 0); err == nil {
		t.Fatal("k=3 (not dividing 256) accepted")
	}
	if _, err := Benchmark(1, 1, 0); err == nil {
		t.Fatal("k=1 accepted")
	}
}

func TestExactlyOneRollPerTwoSymbols(t *testing.T) {
	a, err := Benchmark(1, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(a)
	rng := randx.New(1)
	input := rng.Bytes(1000)
	st := e.Run(input)
	// Branch active on even steps, exactly one side on odd steps → one
	// report per two symbols.
	if st.Reports != 500 {
		t.Fatalf("reports=%d want 500", st.Reports)
	}
}

func TestSideSelection(t *testing.T) {
	b := automata.NewBuilder()
	if err := BuildChain(b, 4, 0, nil); err != nil {
		t.Fatal(err)
	}
	a := b.MustBuild()
	e := sim.New(a)
	var codes []int32
	e.OnReport = func(r sim.Report) { codes = append(codes, r.Code) }
	// Bytes 0, 64, 128, 192 select sides 0..3 on the roll symbols.
	e.Run([]byte{0xFF, 0, 0xFF, 64, 0xFF, 128, 0xFF, 192})
	want := []int32{0, 1, 2, 3}
	if len(codes) != 4 {
		t.Fatalf("codes=%v", codes)
	}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("roll %d: side %d want %d", i, codes[i], want[i])
		}
	}
}

func TestGeneratorQuality(t *testing.T) {
	a, err := Benchmark(20, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(a, 8)
	rng := randx.New(99)
	bits := g.Drive(rng.Bytes(40_000))
	if len(bits) < 100_000 {
		t.Fatalf("bits=%d, expected 3 bits × 20 chains × 20k rolls", len(bits))
	}
	q := Assess(bits)
	if math.Abs(q.OnesFrac-0.5) > 0.01 {
		t.Fatalf("monobit bias: %v", q.OnesFrac)
	}
	if q.MaxRun > 40 {
		t.Fatalf("suspicious run length %d", q.MaxRun)
	}
	// Chi-square over 256 bins: mean ≈ 255; flag only gross failure.
	if q.ChiSquare > 400 {
		t.Fatalf("chi-square %v", q.ChiSquare)
	}
	if len(g.Bytes()) != len(bits)/8 {
		t.Fatalf("packed bytes=%d", len(g.Bytes()))
	}
}

func TestAssessEmpty(t *testing.T) {
	q := Assess(nil)
	if q.Bits != 0 || q.OnesFrac != 0 {
		t.Fatalf("empty assess: %+v", q)
	}
}

func TestBiasedInputShowsInQuality(t *testing.T) {
	// Feeding constant bytes must produce obviously non-random bits —
	// the metric should detect it (validating the metric itself).
	a, err := Benchmark(5, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(a, 4)
	input := make([]byte, 10_000) // all zeros → deterministic walk
	bits := g.Drive(input)
	q := Assess(bits)
	// A deterministic (eventually periodic) bit stream concentrates its
	// packed bytes on a handful of values: chi-square must explode.
	if q.ChiSquare < 1000 {
		t.Fatalf("constant input looks random? chi-square=%v", q.ChiSquare)
	}
}
