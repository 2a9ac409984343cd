package partition

import (
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/mesh"
	"automatazoo/internal/randx"
	"automatazoo/internal/sim"
	"automatazoo/internal/spatial"
	"automatazoo/internal/spm"
)

func meshBench(t *testing.T, n int) *automata.Automaton {
	t.Helper()
	a, err := mesh.Benchmark(mesh.Hamming, n, 10, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestPartitionRespectsCapacity(t *testing.T) {
	a := meshBench(t, 30) // 30 components × 46 states
	p, err := Partition(a, 200)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	seen := map[int32]bool{}
	for _, s := range p.Slices {
		if s.States > 200 {
			t.Fatalf("slice exceeds capacity: %d", s.States)
		}
		for _, c := range s.Components {
			if seen[c] {
				t.Fatalf("component %d placed twice", c)
			}
			seen[c] = true
		}
		total += s.States
	}
	if total != a.NumStates() {
		t.Fatalf("placed states %d != automaton states %d", total, a.NumStates())
	}
	if len(seen) != 30 {
		t.Fatalf("components placed: %d", len(seen))
	}
	// First-fit decreasing should be near the lower bound.
	lower := (a.NumStates() + 199) / 200
	if p.Passes() > lower+1 {
		t.Fatalf("passes=%d, lower bound %d", p.Passes(), lower)
	}
}

func TestPartitionErrors(t *testing.T) {
	a := meshBench(t, 2)
	if _, err := Partition(a, 0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	if _, err := Partition(a, 10); err == nil {
		t.Fatal("component larger than capacity accepted")
	}
}

func TestExtractPreservesBehaviour(t *testing.T) {
	a := meshBench(t, 10)
	p, err := Partition(a, 100) // 2 components per slice
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(7)
	input := mesh.RandomDNA(rng, 20_000)

	whole := map[[2]int64]int{}
	e := sim.New(a)
	e.OnReport = func(r sim.Report) { whole[[2]int64{r.Offset, int64(r.Code)}]++ }
	e.Run(input)

	merged := map[[2]int64]int{}
	reps, res := canonical(t, p, input)
	for _, r := range reps {
		merged[[2]int64{r.Offset, int64(r.Code)}]++
	}
	if res.Passes != p.Passes() {
		t.Fatalf("passes=%d", res.Passes)
	}
	if len(whole) != len(merged) {
		t.Fatalf("report sets differ: %d vs %d", len(whole), len(merged))
	}
	for k, v := range whole {
		if merged[k] != v {
			t.Fatalf("report %v: %d vs %d", k, v, merged[k])
		}
	}
	if res.Symbols != int64(len(input))*int64(res.Passes) {
		t.Fatalf("symbols=%d", res.Symbols)
	}
}

func TestExtractPreservesCounters(t *testing.T) {
	b := automata.NewBuilder()
	for i := 0; i < 4; i++ {
		if err := spm.Build(b, spm.Pattern{Items: []byte{byte(i + 1), byte(i + 2)}},
			spm.Config{WithCounter: true, SupportThreshold: 2}, int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	a := b.MustBuild()
	p, err := Partition(a, a.NumStates()/2+1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Passes() < 2 {
		t.Fatalf("expected multi-pass, got %d", p.Passes())
	}
	counters := 0
	for i := range p.Slices {
		sub, err := p.Extract(i)
		if err != nil {
			t.Fatal(err)
		}
		counters += sub.NumCounters()
	}
	if counters != 4 {
		t.Fatalf("counters across slices: %d", counters)
	}
	if _, err := p.Extract(99); err == nil {
		t.Fatal("out-of-range extract accepted")
	}
}

func TestUtilizationAndThroughput(t *testing.T) {
	a := meshBench(t, 20)
	p, err := Partition(a, 250)
	if err != nil {
		t.Fatal(err)
	}
	u := p.Utilization()
	if u <= 0 || u > 1 {
		t.Fatalf("utilization=%v", u)
	}
	m := spatial.MicronD480()
	full := m.SymbolsPerSec(0)
	eff := p.EffectiveThroughput(full)
	if eff >= full {
		t.Fatalf("partitioned throughput should drop: %v vs %v", eff, full)
	}
	if got := full / eff; int(got+0.5) != p.Passes() {
		t.Fatalf("throughput should divide by passes: %v vs %d", got, p.Passes())
	}
}

func TestSingleSliceWhenItFits(t *testing.T) {
	a := meshBench(t, 5)
	p, err := Partition(a, a.NumStates())
	if err != nil {
		t.Fatal(err)
	}
	if p.Passes() != 1 {
		t.Fatalf("passes=%d want 1", p.Passes())
	}
}
