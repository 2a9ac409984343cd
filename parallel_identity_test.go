// Suite-wide `-j 1` ≡ `-j N` ≡ `-segments K` guarantee: for every
// benchmark and all three engines, the lines `azoo run` prints — its
// scan.Run call and scan.Result.Format, the command's own path — must be
// byte-identical at every worker count and every segment count, and
// `-engine prefilter` must print exactly the nfa engine's line at every
// combination.
package automatazoo_test

import (
	"context"
	"runtime"
	"testing"

	"automatazoo/internal/core"
	"automatazoo/internal/scan"
	"automatazoo/internal/segment"
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
			lines := func(engine string, j, segments int) string {
				t.Helper()
				newEngine, err := scan.Factory(engine)
				if err != nil {
					t.Fatal(err)
				}
				res, err := scan.Run(context.Background(), a, segs, scan.Spec{
					Hooks: segment.Hooks{NewEngine: newEngine}, Workers: j, Segments: segments,
				})
				if err != nil {
					t.Fatalf("%s -j %d -segments %d: %v", engine, j, segments, err)
				}
				return res.Format(bench.Name, a.NumStates())
			}
			// The dfa engine rejects counter automata at any -j, exactly as
			// Hyperscan skips such rules.
			dfa := a.NumCounters() == 0
			seqNFA := lines("nfa", 1, 1)
			var seqDFA string
			if dfa {
				seqDFA = lines("dfa", 1, 1)
			}
			if got := lines("prefilter", 1, 1); got != seqNFA {
				t.Errorf("prefilter output differs:\n nfa -j 1: %q\n prefilter -j 1: %q", seqNFA, got)
			}
			for _, v := range variants {
				for _, engine := range []string{"nfa", "prefilter"} {
					if got := lines(engine, v.j, v.segs); got != seqNFA {
						t.Errorf("%s output differs:\n nfa -j 1: %q\n -j %d -segments %d: %q",
							engine, seqNFA, v.j, v.segs, got)
					}
				}
				if !dfa {
					continue
				}
				if got := lines("dfa", v.j, v.segs); got != seqDFA {
					t.Errorf("dfa output differs:\n -j 1: %q\n -j %d -segments %d: %q",
						seqDFA, v.j, v.segs, got)
				}
			}
		})
	}
}
