// Sequential-vs-parallel throughput of the worker-pool execution layer.
// `make bench-parallel` runs these; the j=1 / j=N ratio is the speedup.
package automatazoo_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"automatazoo/internal/mesh"
	"automatazoo/internal/partition"
	"automatazoo/internal/randx"
	"automatazoo/internal/stats"
)

// benchWorkers is the j values benchmarked: sequential, and the pool at
// full width (at least 2 so single-CPU machines still cover the fan-out
// path).
func benchWorkers() []int {
	n := runtime.NumCPU()
	if n < 2 {
		n = 2
	}
	return []int{1, n}
}

// BenchmarkParallelPlanRun measures partition.Plan.Run on a wide mesh
// kernel: one whole-automaton slice at j=1 versus component slices
// fanned across the pool at j=NumCPU.
func BenchmarkParallelPlanRun(b *testing.B) {
	a, err := mesh.Benchmark(mesh.Hamming, 64, 12, 3, 41)
	if err != nil {
		b.Fatal(err)
	}
	input := mesh.RandomDNA(randx.New(5), 1<<17)
	for _, workers := range benchWorkers() {
		workers := workers
		b.Run(fmt.Sprintf("j=%d", workers), func(b *testing.B) {
			plan := partition.ForWorkers(a, workers)
			b.SetBytes(int64(len(input)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Run(context.Background(), input, partition.RunOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelObserveSegments measures the harness-level path
// cmdRun uses: the single-engine dynamic profile at j=1 versus the
// partitioned parallel profile at j=NumCPU.
func BenchmarkParallelObserveSegments(b *testing.B) {
	a, err := mesh.Benchmark(mesh.Levenshtein, 24, 14, 3, 17)
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(11)
	segs := [][]byte{mesh.RandomDNA(rng, 1<<16), mesh.RandomDNA(rng, 1<<16)}
	var total int64
	for _, seg := range segs {
		total += int64(len(seg))
	}
	for _, workers := range benchWorkers() {
		workers := workers
		b.Run(fmt.Sprintf("j=%d", workers), func(b *testing.B) {
			b.SetBytes(total)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if workers == 1 {
					stats.SimulateSegments(a, segs)
					continue
				}
				if _, err := stats.ObserveSegmentsParallelHooked(context.Background(), a, segs, workers, stats.Hooks{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
