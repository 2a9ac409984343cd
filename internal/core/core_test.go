package core

import (
	"testing"

	"automatazoo/internal/stats"
)

func tinyConfig() Config {
	return Config{Scale: 0.004, InputBytes: 4000, Seed: 0xa20}
}

func TestSuiteHas24Benchmarks(t *testing.T) {
	bs := All()
	// The paper's abstract says "24 benchmarks" but its Table I lists 25
	// rows (both Sequence Matching wC variants are separate rows); we
	// reproduce the table.
	if len(bs) != 25 {
		t.Fatalf("benchmarks=%d want 25 (Table I rows)", len(bs))
	}
	seen := map[string]bool{}
	domains := map[string]bool{}
	for _, b := range bs {
		if b.Name == "" || b.Domain == "" || b.Input == "" || b.Build == nil {
			t.Fatalf("incomplete benchmark %+v", b)
		}
		if seen[b.Name] {
			t.Fatalf("duplicate name %q", b.Name)
		}
		seen[b.Name] = true
		domains[b.Domain] = true
	}
	// Table I's Domain column has 12 distinct labels (Hamming and
	// Levenshtein share "String Similarity"; the paper's "13 application
	// domains" counts the two scoring kernels separately).
	if len(domains) != 12 {
		t.Fatalf("domains=%d want 12", len(domains))
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("Snort")
	if err != nil || b.Name != "Snort" {
		t.Fatalf("ByName: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// Every benchmark must build at tiny scale, produce a non-empty automaton
// and input, and survive a stats pass. Heavier per-benchmark behaviour is
// covered in each generator's own package.
func TestAllBenchmarksBuildAndSimulate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all 24 benchmarks")
	}
	cfg := tinyConfig()
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			a, segs, err := b.Build(cfg)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if a.NumStates() == 0 {
				t.Fatal("empty automaton")
			}
			if len(segs) == 0 || len(segs[0]) == 0 {
				t.Fatal("empty input")
			}
			st := stats.Compute(a)
			if st.Subgraphs == 0 || st.ReportStates == 0 {
				t.Fatalf("degenerate stats: %+v", st)
			}
			dyn, err := stats.ObserveSegmentsHooked(a, segs, stats.Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			if dyn.Symbols == 0 {
				t.Fatal("no symbols simulated")
			}
		})
	}
}

func TestDeterministicBuilds(t *testing.T) {
	cfg := tinyConfig()
	b, err := ByName("Hamming 18x3")
	if err != nil {
		t.Fatal(err)
	}
	a1, s1, err := b.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a2, s2, err := b.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a1.NumStates() != a2.NumStates() || a1.NumEdges() != a2.NumEdges() {
		t.Fatal("same config produced different automata")
	}
	if string(s1[0]) != string(s2[0]) {
		t.Fatal("same config produced different inputs")
	}
}

func TestScaledCounts(t *testing.T) {
	if got := scaled(1000, 0.1); got != 100 {
		t.Fatalf("scaled=%d", got)
	}
	if got := scaled(10, 0.0001); got != 1 {
		t.Fatalf("scaled floor=%d", got)
	}
}
