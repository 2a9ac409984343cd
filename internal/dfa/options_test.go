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
	ref.CollectReports = true
	ref.Run(input)
	want := map[[2]int64]int{}
	for _, r := range ref.Reports() {
		want[[2]int64{r.Offset, int64(r.Code)}]++
	}
	for _, opts := range []Options{
		{},
		{BudgetFactor: 1},
	} {
		e, err := NewWithOptions(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		e.CollectReports = true
		e.Run(input)
		got := map[[2]int64]int{}
		for _, r := range e.Reports() {
			got[[2]int64{r.Offset, int64(r.Code)}]++
		}
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
