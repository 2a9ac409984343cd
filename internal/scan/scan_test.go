package scan

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"automatazoo/internal/ckpt"
	"automatazoo/internal/mesh"
	"automatazoo/internal/randx"
	"automatazoo/internal/segment"
)

// TestLayoutsAgree runs every engine through every layout — whole,
// component slices, segmented, and checkpointed with and without
// segments — and requires the layout to be invisible: identical exact
// statistics and identical printed lines, the dfa cache line included.
// The stitch accounting is the one thing a layout shows, and only the
// segmented ones have it; dfa at -j 2 -segments 3 is sliced, not segmented.
func TestLayoutsAgree(t *testing.T) {
	a, err := mesh.Benchmark(mesh.Hamming, 12, 12, 2, 19)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(5)
	streams := [][]byte{mesh.RandomDNA(rng, 9000), mesh.RandomDNA(rng, 300), mesh.RandomDNA(rng, 5000)}
	for _, engine := range []string{"nfa", "dfa", "prefilter"} {
		newEngine, err := Factory(engine)
		if err != nil {
			t.Fatal(err)
		}
		run := func(workers, segments int, checkpoint bool) Result {
			t.Helper()
			sp := Spec{Hooks: segment.Hooks{NewEngine: newEngine}, Workers: workers, Segments: segments}
			if checkpoint {
				sp.Saver = &ckpt.Saver{Path: filepath.Join(t.TempDir(), "ck"), Interval: ckpt.ChunkAlign}
			}
			res, err := Run(context.Background(), a, streams, sp)
			if err != nil {
				t.Fatalf("%s -j %d -segments %d checkpoint %v: %v", engine, workers, segments, checkpoint, err)
			}
			return res
		}
		want := run(1, 1, false)
		if want.Stats.Reports == 0 {
			t.Fatal("kernel produced no reports; test is vacuous")
		}
		if (want.Cache != nil) != (engine == "dfa") {
			t.Fatalf("%s: Cache = %v", engine, want.Cache)
		}
		for _, l := range []struct {
			workers, segments int
			checkpoint        bool
		}{{2, 1, false}, {1, 3, false}, {2, 3, false}, {1, 1, true}, {2, 3, true}} {
			name := fmt.Sprintf("%s -j %d -segments %d checkpoint %v", engine, l.workers, l.segments, l.checkpoint)
			got := run(l.workers, l.segments, l.checkpoint)
			if got.Stats != want.Stats {
				t.Errorf("%s: stats %+v, want %+v", name, got.Stats, want.Stats)
			}
			if g, w := got.Format("k", a.NumStates()), want.Format("k", a.NumStates()); g != w {
				t.Errorf("%s: prints %q, want %q", name, g, w)
			}
			// A caching engine keeps its component slices at -j > 1.
			sliced := engine == "dfa" && l.workers > 1 && !l.checkpoint
			if segmented := got.Stitch.Segments > 0; segmented != (l.segments > 1 && !sliced) {
				t.Errorf("%s: stitch %+v", name, got.Stitch)
			}
		}
	}
}
