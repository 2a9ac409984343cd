package prefilter

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/guard"
	"automatazoo/internal/hooks"
	"automatazoo/internal/telemetry"
)

// TestFrontierBatchMatchesPerSymbol holds the Frontier histogram, which
// the prefilter hands to its sim stage, to one observed per symbol: a bare
// twin engine takes the same steps, and its FrontierLen is observed before
// each of them. The engine under test scans pieces through Step and a
// governed RunChecked; between pieces both get the same Reset,
// RestoreState and EnableState calls, and the engine is flushed or
// re-attached to a fresh histogram. The fully anchored workload leaves the
// sim stage idle on most symbols (counted in bulk, never observed).
func TestFrontierBatchMatchesPerSymbol(t *testing.T) {
	mixed, mixedInput := prefilterWorkload(t)
	anchored := compilePatterns(t, "needle[0-9]z", "haystack[xy]", "pinpoint")
	idle := make([]byte, 3*hooks.Chunk)
	for i := range idle {
		idle[i] = "needlexhaystackypinpointz"[i%25]
		if i%7 == 0 {
			idle[i] = 'q'
		}
	}
	newHist := func() (*telemetry.Registry, *telemetry.Histogram) {
		reg := telemetry.NewRegistry()
		return reg, reg.Histogram("sim.frontier", telemetry.ExpBuckets(1, 16))
	}
	for _, s := range []struct {
		name  string
		e     *Engine
		input []byte
	}{{"mixed", mixed, mixedInput}, {"anchored", mustNew(t, anchored), idle}} {
		t.Run(s.name, func(t *testing.T) {
			e, twin := s.e, mustNew(t, s.e.Automaton())
			rng := rand.New(rand.NewSource(1))
			gov := guard.New(context.Background(), guard.Budget{})
			reg, hist := newHist()
			wantReg, want := newHist()
			e.Attach(hooks.Set{Frontier: hist, Governor: gov})
			same := func(where string, reg, wantReg *telemetry.Registry) {
				t.Helper()
				g, w := reg.Snapshot().Histograms["sim.frontier"], wantReg.Snapshot().Histograms["sim.frontier"]
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: batched %+v, per symbol %+v", where, g, w)
				}
			}
			for round := 0; round < 4; round++ {
				for off := 0; off < len(s.input); {
					end := min(len(s.input), off+1+rng.Intn(hooks.Chunk+hooks.Chunk/2))
					piece := s.input[off:end]
					for _, b := range piece {
						want.Observe(int64(twin.FrontierLen()))
						twin.Step(b)
					}
					if rng.Intn(2) == 0 {
						if _, err := e.RunChecked(piece); err != nil {
							t.Fatal(err)
						}
					} else {
						for _, b := range piece {
							e.Step(b)
						}
					}
					off = end
					switch rng.Intn(5) {
					case 0:
						e.Flush()
						same("flush", reg, wantReg)
					case 1:
						e.Reset()
						twin.Reset()
						same("reset", reg, wantReg)
					case 2:
						snap := e.CaptureState()
						if err := e.RestoreState(snap); err != nil {
							t.Fatal(err)
						}
						if err := twin.RestoreState(snap); err != nil {
							t.Fatal(err)
						}
						same("restore", reg, wantReg)
					case 3:
						oldReg, oldWant := reg, wantReg
						reg, hist = newHist()
						wantReg, want = newHist()
						e.Attach(hooks.Set{Frontier: hist, Governor: gov})
						same("replaced", oldReg, oldWant)
					case 4:
						id := automata.StateID(rng.Intn(e.numStates))
						e.EnableState(id)
						twin.EnableState(id)
					}
				}
			}
			e.Flush()
			same("end", reg, wantReg)
			if s.name == "anchored" && wantReg.Snapshot().Histograms["sim.frontier"].Buckets[0].Count == 0 {
				t.Fatal("vacuous: the sim stage never idled")
			}
		})
	}
}

func mustNew(t *testing.T, a *automata.Automaton) *Engine {
	t.Helper()
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
