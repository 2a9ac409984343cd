// Suite-wide `-j 1` ≡ `-j N` ≡ `-segments K` guarantee: for every
// benchmark and all three engines, the output lines `azoo run` prints
// must be byte-identical at every worker count and every segment count —
// and `-engine prefilter` must print exactly the nfa engine's line at
// every combination. The format strings and per-engine accounting below
// mirror cmdRun in cmd/azoo/main.go exactly — if that output changes,
// this test must change with it.
package automatazoo_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/core"
	"automatazoo/internal/dfa"
	"automatazoo/internal/parallel"
	"automatazoo/internal/partition"
	"automatazoo/internal/prefilter"
	"automatazoo/internal/segment"
	"automatazoo/internal/stats"
)

func TestRunOutputByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and scans the full suite at several worker/segment counts")
	}
	cfg := core.Config{Scale: 0.01, InputBytes: 30_000, Seed: 0xe1}
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2
	}
	// The (workers × segments) matrix, all compared against the (1, 1)
	// baseline. Explicit -segments bypasses the auto size floor, so the
	// 30 KB suite streams really are split; segments=1 pins the exact
	// historical path, odd counts produce uneven tail chunks.
	variants := []struct{ j, segs int }{
		{1, 3},
		{1, 5},
		{workers, 1},
		{workers, 3},
	}
	for _, bench := range core.All() {
		bench := bench
		t.Run(bench.Name, func(t *testing.T) {
			a, segs, err := bench.Build(cfg)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}

			seqNFA := nfaLine(bench.Name, a, stats.SimulateSegments(a, segs))
			var seqDFA string
			if a.NumCounters() == 0 {
				// The dfa engine rejects counter automata at any -j, exactly
				// as Hyperscan skips such rules.
				seqDFA, err = dfaLines(bench.Name, a, segs, 1, 1)
				if err != nil {
					t.Fatal(err)
				}
			}

			for _, v := range variants {
				var dyn stats.Dynamic
				if v.segs > 1 {
					dyn, _, err = stats.ObserveStreams(context.Background(), a, segs,
						stats.StreamOptions{Workers: v.j, Segments: v.segs})
				} else if v.j > 1 {
					dyn, err = stats.ObserveSegmentsParallelHooked(context.Background(), a, segs, v.j, stats.Hooks{})
				} else {
					dyn = stats.SimulateSegments(a, segs)
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := nfaLine(bench.Name, a, dyn); got != seqNFA {
					t.Errorf("nfa output differs:\n -j 1: %q\n -j %d -segments %d: %q",
						seqNFA, v.j, v.segs, got)
				}

				// -engine prefilter: same scan paths with the two-stage
				// engine behind the factory; the printed line must equal the
				// nfa baseline at every (workers × segments) combination.
				pdyn, err := prefilterDynamic(a, segs, v.j, v.segs)
				if err != nil {
					t.Fatal(err)
				}
				if got := nfaLine(bench.Name, a, pdyn); got != seqNFA {
					t.Errorf("prefilter output differs:\n nfa -j 1: %q\n prefilter -j %d -segments %d: %q",
						seqNFA, v.j, v.segs, got)
				}

				if a.NumCounters() > 0 {
					continue
				}
				got, err := dfaLines(bench.Name, a, segs, v.j, v.segs)
				if err != nil {
					t.Fatal(err)
				}
				if got != seqDFA {
					t.Errorf("dfa output differs:\n -j 1: %q\n -j %d -segments %d: %q",
						seqDFA, v.j, v.segs, got)
				}
			}
		})
	}
}

// prefilterDynamic mirrors cmdRun's -engine prefilter dispatch: the same
// ObserveStreams / ObserveSegmentsParallelHooked / ObserveSegmentsHooked
// paths, with the prefilter factory in the hooks.
func prefilterDynamic(a *automata.Automaton, segs [][]byte, workers, segments int) (stats.Dynamic, error) {
	h := stats.Hooks{NewEngine: func(sub *automata.Automaton) (segment.Engine, error) {
		return prefilter.New(sub)
	}}
	switch {
	case segments > 1:
		dyn, _, err := stats.ObserveStreams(context.Background(), a, segs,
			stats.StreamOptions{Workers: workers, Segments: segments, Hooks: h})
		return dyn, err
	case workers > 1:
		return stats.ObserveSegmentsParallelHooked(context.Background(), a, segs, workers, h)
	default:
		return stats.ObserveSegmentsHooked(a, segs, h)
	}
}

// nfaLine formats cmdRun's nfa-engine output line.
func nfaLine(name string, a *automata.Automaton, dyn stats.Dynamic) string {
	return fmt.Sprintf("%s: %d states, %d symbols, %d reports (%.6f/sym), active set %.2f\n",
		name, a.NumStates(), dyn.Symbols, dyn.Reports, dyn.ReportRate, dyn.ActiveSet)
}

// dfaScan mirrors cmdRun's dfaScanStream: one RunChecked when the stream
// is unsegmented, otherwise a chunked scan with a capture/restore handoff
// at every segment boundary (per-stream stats restart per chunk; cache
// counters persist across the handoff).
func dfaScan(e *dfa.Engine, seg []byte, k int) (symbols, reports int64, err error) {
	if k <= 1 {
		st, err := e.RunChecked(seg)
		return st.Symbols, st.Reports, err
	}
	bounds := segment.Bounds(int64(len(seg)), k)
	for ci := 0; ci < k; ci++ {
		if err := e.RestoreState(e.CaptureState()); err != nil {
			return symbols, reports, err
		}
		st, rerr := e.RunChecked(seg[bounds[ci]:bounds[ci+1]])
		symbols += st.Symbols
		reports += st.Reports
		if rerr != nil {
			return symbols, reports, rerr
		}
	}
	return symbols, reports, nil
}

// dfaLines formats cmdRun's dfa-engine output lines, reproducing its
// -j 1 path (one whole-automaton engine), its -j N path
// (component-partitioned slice engines on the worker pool, statistics
// summed), and the -segments K chunked resume inside either.
func dfaLines(name string, a *automata.Automaton, segs [][]byte, workers, segments int) (string, error) {
	var symbols, reports int64
	var st dfa.Stats
	if workers == 1 {
		e, err := dfa.New(a)
		if err != nil {
			return "", err
		}
		for _, seg := range segs {
			e.Reset()
			k := segment.Resolve(int64(len(seg)), segments, 1, 0)
			sym, rep, err := dfaScan(e, seg, k)
			if err != nil {
				return "", err
			}
			symbols += sym
			reports += rep
		}
		st = e.Stats()
	} else {
		plan := partition.ForWorkers(a, workers)
		perSlice := make([]dfa.Stats, plan.Passes())
		sliceReports := make([]int64, plan.Passes())
		err := parallel.ForEach(context.Background(), workers, plan.Passes(), func(i int) error {
			sub, err := plan.Extract(i)
			if err != nil {
				return err
			}
			e, err := dfa.New(sub)
			if err != nil {
				return err
			}
			for _, seg := range segs {
				e.Reset() // clears per-run Symbols/Reports; cache counters persist
				k := segment.Resolve(int64(len(seg)), segments, workers, 0)
				_, rep, err := dfaScan(e, seg, k)
				if err != nil {
					return err
				}
				sliceReports[i] += rep
			}
			perSlice[i] = e.Stats()
			return nil
		})
		if err != nil {
			return "", err
		}
		for _, seg := range segs {
			symbols += int64(len(seg))
		}
		for i, s := range perSlice {
			reports += sliceReports[i]
			st.DFAStates += s.DFAStates
			st.Fallbacks += s.Fallbacks
			st.CacheHits += s.CacheHits
			st.CacheMisses += s.CacheMisses
			st.CacheEvictions += s.CacheEvictions
		}
	}
	return fmt.Sprintf("%s: %d states, %d symbols, %d reports, %d DFA states, %d fallbacks\n",
			name, a.NumStates(), symbols, reports, st.DFAStates, st.Fallbacks) +
			fmt.Sprintf("transition cache: %.2f%% hit rate, %.4f evictions/lookup\n",
				st.HitRate()*100, st.EvictionRate()),
		nil
}
