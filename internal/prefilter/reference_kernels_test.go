package prefilter_test

import (
	"testing"

	"automatazoo/internal/core"
	"automatazoo/internal/difftest"
	"automatazoo/internal/prefilter"
	"automatazoo/internal/randx"
)

// The kernels of the benchmark's prefilter_lit workload.
var referenceKernels = []string{"Snort", "ClamAV", "YARA", "YARA Wide", "File Carving", "Brill"}

// TestEngineMatchesReference holds the engine to the two-interpreter
// engine it replaced (reference_test.go), byte by byte, on difftest's
// anchorable automata and on the prefilter_lit kernels at tiny scale. It
// lives outside package prefilter because difftest scans through it.
func TestEngineMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 150; seed++ {
		rng := randx.New(seed)
		a, wit := difftest.GenAnchorable(rng)
		prefilter.CompareWithReference(t, a, difftest.GenAnchorableInput(rng, wit, 600), int64(seed))
	}
	for _, name := range referenceKernels {
		t.Run(name, func(t *testing.T) {
			bm, err := core.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			a, segs, err := bm.Build(core.Config{Scale: 0.005, InputBytes: 16384, Seed: 0xa20})
			if err != nil {
				t.Fatal(err)
			}
			prefilter.CompareWithReference(t, a, segs[0], 1)
		})
	}
}

// FuzzEngineMatchesReference is TestEngineMatchesReference's random half
// with the input left to the fuzzer: mostly the anchor alphabet, so
// anchors hit and self-overlap, and any other byte now and then.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add(uint64(1), []byte("abcabcabab"))
	f.Add(uint64(7), []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"))
	f.Add(uint64(42), []byte("ddddaaaaddddaaaaddddxbcd"))
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		a, _ := difftest.GenAnchorable(randx.New(seed))
		input := make([]byte, len(raw))
		for i, b := range raw {
			input[i] = b
			if b&0x0f < 13 {
				input[i] = "abcd"[b&3]
			}
		}
		prefilter.CompareWithReference(t, a, input, int64(seed))
	})
}
