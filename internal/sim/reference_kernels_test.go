package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"automatazoo/internal/core"
	"automatazoo/internal/sim"
)

// The kernels of the benchmark's dense_nfa and sparse_nfa workloads.
var referenceKernels = []string{
	"Hamming 22x5", "Levenshtein 24x5", "Levenshtein 37x10", "Seq. Match 6w 6p wC",
	"Seq. Match 6w 10p", "Seq. Match 6w 10p wC", "Protomata", "Entity Resolution", "CRISPR CasOT", "AP PRNG 8-sided",
	"Snort", "ClamAV", "YARA", "YARA Wide", "File Carving", "Brill",
}

// TestEngineMatchesReference holds the engine to the seed step
// (reference_test.go), byte by byte and in every representation mode, on
// random automata and on the dense_nfa and sparse_nfa kernels at tiny
// scale. It lives outside package sim because the kernels' generators
// import sim.
func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := sim.RandomAutomaton(rng)
		t.Run(fmt.Sprintf("random-%d", seed), func(t *testing.T) {
			sim.CompareWithReference(t, a, sim.RandomInput(rng, 1500), seed)
		})
	}
	for _, name := range referenceKernels {
		t.Run(name, func(t *testing.T) {
			bm, err := core.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			a, segs, err := bm.Build(core.Config{Scale: 0.005, InputBytes: 2048, Seed: 0xa20})
			if err != nil {
				t.Fatal(err)
			}
			sim.CompareWithReference(t, a, segs[0], 1)
		})
	}
}
