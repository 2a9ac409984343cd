package bitnfa_test

import (
	"fmt"
	"math/rand"
	"testing"

	"automatazoo/internal/bitnfa"
	"automatazoo/internal/difftest"
	"automatazoo/internal/randx"
)

// TestStride8MatchesReference holds Stride8 to the map-based seed body
// (reference_test.go), state by state, on 300 of difftest's bit automata,
// on the automata this package's tests build and on random aligned and
// raw ones. It lives outside package bitnfa because difftest imports it.
func TestStride8MatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		a, _ := difftest.GenerateBit(randx.New(seed))
		t.Run(fmt.Sprintf("generated-%d", seed), func(t *testing.T) {
			bitnfa.CompareWithReference(t, a)
		})
	}
	for i, a := range bitnfa.StrideFixtures(t) {
		t.Run(fmt.Sprintf("fixture-%d", i), func(t *testing.T) {
			bitnfa.CompareWithReference(t, a)
		})
	}
	for seed := int64(1); seed <= 200; seed++ {
		for _, aligned := range []bool{true, false} {
			a := bitnfa.RandomAutomaton(rand.New(rand.NewSource(seed)), aligned)
			t.Run(fmt.Sprintf("random-%d-%v", seed, aligned), func(t *testing.T) {
				bitnfa.CompareWithReference(t, a)
			})
		}
	}
}
