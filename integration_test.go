// Suite-wide integration tests: every benchmark in the registry is
// generated and run through the independent execution engines (NFA
// interpreter, lazy-DFA engine, two-stage prefilter scanner), and their
// report streams are compared. Three implementations, one semantics.
package automatazoo_test

import (
	"testing"

	"automatazoo/internal/core"
	"automatazoo/internal/dfa"
	"automatazoo/internal/prefilter"
	"automatazoo/internal/sim"
)

func TestCrossEngineEquivalenceSuiteWide(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and scans the full suite")
	}
	cfg := core.Config{Scale: 0.01, InputBytes: 30_000, Seed: 0xe1}
	for _, bench := range core.All() {
		bench := bench
		t.Run(bench.Name, func(t *testing.T) {
			a, segs, err := bench.Build(cfg)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}

			type key struct {
				seg    int
				offset int64
				code   int32
			}
			collect := func(run func(seg int, input []byte, emit func(int64, int32))) map[key]int {
				out := map[key]int{}
				for i, seg := range segs {
					run(i, seg, func(off int64, code int32) {
						out[key{i, off, code}]++
					})
				}
				return out
			}

			nfa := collect(func(_ int, input []byte, emit func(int64, int32)) {
				e := sim.New(a)
				e.OnReport = func(r sim.Report) { emit(r.Offset, r.Code) }
				e.Run(input)
			})

			// Lazy DFA (skipped for counter automata, as Hyperscan skips
			// such rules).
			if a.NumCounters() == 0 {
				d, err := dfa.New(a)
				if err != nil {
					t.Fatal(err)
				}
				got := collect(func(_ int, input []byte, emit func(int64, int32)) {
					d.Reset()
					d.OnReport = func(r sim.Report) { emit(r.Offset, r.Code) }
					d.Run(input)
				})
				compare(t, "dfa", nfa, got)
			}

			pf, err := prefilter.New(a)
			if err != nil {
				t.Fatal(err)
			}
			got := collect(func(_ int, input []byte, emit func(int64, int32)) {
				pf.Reset()
				pf.OnReport = func(r sim.Report) { emit(r.Offset, r.Code) }
				pf.Run(input)
			})
			compare(t, "prefilter", nfa, got)
		})
	}
}

func compare[K comparable](t *testing.T, engine string, want, got map[K]int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: report key counts differ: want %d got %d", engine, len(want), len(got))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: report %v: want %d got %d", engine, k, v, got[k])
		}
	}
}
