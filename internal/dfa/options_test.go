package dfa

import (
	"testing"

	"automatazoo/internal/sim"
)

// Every state budget must report identically to the reference NFA engine.
func TestOptionsEquivalence(t *testing.T) {
	a := compile(t, "cat", "[bc]at+", "^dog", "a{2,3}b")
	input := []byte("catdogaabbcattttaaab catt")
	ref := sim.New(a)
	want := reportKeys(ref.SetOnReport)
	ref.Run(input)
	for _, opts := range []Options{
		{},
		{BudgetFactor: 1},
	} {
		e, err := NewWithOptions(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := reportKeys(e.SetOnReport)
		e.Run(input)
		if len(got) != len(want) {
			t.Fatalf("opts %+v: report sets differ (%d vs %d)", opts, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("opts %+v: report %v: %d vs %d", opts, k, got[k], v)
			}
		}
	}
}
