package dfa

import (
	"testing"

	"automatazoo/internal/hooks"
)

// TestDisabledLiveTelemetryZeroAllocs: with no governor, progress
// tracker, flight recorder, attribution ledger, or checkpointer
// attached, the DFA engine's RunChecked must reduce to the exact Run
// fast path and stay allocation-free once the transition cache is warm.
func TestDisabledLiveTelemetryZeroAllocs(t *testing.T) {
	a := compile(t, "abc", "bca")
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	e.Attach(hooks.Set{})
	input := []byte("xxabcxxabcabcxaxbxcabxcabcbcabca")
	e.Reset()
	if _, err := e.RunChecked(input); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		e.Reset()
		e.RunChecked(input)
	})
	if allocs != 0 {
		t.Fatalf("disabled-live RunChecked allocated %.1f times per run, want 0", allocs)
	}
}
