package sim

import (
	"testing"

	"automatazoo/internal/hooks"
)

// TestDisabledLiveTelemetryZeroAllocs guards the checked path with the
// live-ops surface fully disabled: with no governor, progress tracker,
// flight recorder, attribution ledger, or checkpointer attached,
// RunChecked must reduce to the exact Run fast path and stay
// allocation-free once warm.
func TestDisabledLiveTelemetryZeroAllocs(t *testing.T) {
	a := literalAutomaton("abc", 1)
	e := New(a)
	e.Attach(hooks.Set{})
	input := []byte("xxabcxxabcabcxaxbxcabxcabc")
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
