package stats

import (
	"context"
	"runtime"
	"testing"

	"automatazoo/internal/mesh"
	"automatazoo/internal/partition"
	"automatazoo/internal/randx"
	"automatazoo/internal/telemetry"
)

// TestObserveSegmentsParallelMatchesSequential asserts the parallel
// partitioned simulation reproduces the single-engine Dynamic profile
// field-for-field for every worker count — the stats-level half of the
// `-j 1` ≡ `-j N` guarantee.
func TestObserveSegmentsParallelMatchesSequential(t *testing.T) {
	a, err := mesh.Benchmark(mesh.Hamming, 15, 10, 2, 19)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(3)
	segments := [][]byte{
		mesh.RandomDNA(rng, 12_000),
		mesh.RandomDNA(rng, 8_000),
	}
	want := observeWhole(t, a, segments)
	if want.Reports == 0 {
		t.Fatal("kernel produced no reports; test is vacuous")
	}
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		got, err := ObserveSegmentsParallelHooked(context.Background(), a, segments, workers, Hooks{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Fatalf("workers=%d: Dynamic %+v != sequential %+v", workers, got, want)
		}
	}
}

// TestObserveSegmentsParallelRegistry checks the documented registry
// semantics: for a fixed workers value the totals are deterministic
// across runs, and sim.symbols counts per-slice engine work (the plan's
// passes × stream length).
func TestObserveSegmentsParallelRegistry(t *testing.T) {
	a, err := mesh.Benchmark(mesh.Hamming, 8, 10, 2, 23)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(9)
	seg := mesh.RandomDNA(rng, 5_000)
	for _, workers := range []int{2, runtime.NumCPU()} {
		passes := partition.ForWorkers(a, workers).Passes()
		var totals []int64
		for run := 0; run < 2; run++ {
			reg := telemetry.NewRegistry()
			if _, err := ObserveSegmentsParallelHooked(context.Background(), a, [][]byte{seg}, workers, Hooks{Registry: reg}); err != nil {
				t.Fatal(err)
			}
			totals = append(totals, reg.Counter("sim.symbols").Value())
		}
		if totals[0] != totals[1] {
			t.Fatalf("workers=%d: totals must be deterministic across runs: %v", workers, totals)
		}
		if want := int64(passes * len(seg)); totals[0] != want {
			t.Fatalf("workers=%d: sim.symbols=%d, want passes×len=%d", workers, totals[0], want)
		}
	}
}
