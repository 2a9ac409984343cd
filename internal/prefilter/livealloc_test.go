package prefilter

import (
	"testing"

	"automatazoo/internal/hooks"
	"automatazoo/internal/sim"
	"automatazoo/internal/telemetry"
)

// prefilterWorkload builds a mixed automaton exercising every runtime
// path: anchored literals (one a whole-pattern anchor, one with a confirm
// tail), and a class-headed residual pattern.
func prefilterWorkload(t testing.TB) (*Engine, []byte) {
	t.Helper()
	a := compilePatterns(t, "needle", `error[0-9]x`, "[xy]zzz")
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	input := make([]byte, 4<<10)
	copy(input, "a needle error7x xzzz ")
	for i := 22; i < len(input); i++ {
		input[i] = byte('a' + i%17)
	}
	return e, input
}

// TestDisabledLiveTelemetryZeroAllocs guards the two-stage engine's
// disabled path: with no tracer, governor, progress tracker, ledger, or
// checkpointer attached, RunChecked must reduce to the Run fast path and
// stay allocation-free once warm — including the per-offset report merge
// and the anchor-hit callback — bare, and with only the Frontier
// histogram observing every symbol.
func TestDisabledLiveTelemetryZeroAllocs(t *testing.T) {
	frontier := telemetry.NewRegistry().Histogram("sim.frontier", telemetry.ExpBuckets(1, 16))
	for _, set := range []hooks.Set{{}, {Frontier: frontier}} {
		e, input := prefilterWorkload(t)
		e.Attach(set)
		e.OnReport = func(sim.Report) {}
		e.Reset()
		if _, err := e.RunChecked(input); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			e.Reset()
			e.RunChecked(input)
		})
		if allocs != 0 {
			t.Fatalf("disabled-live RunChecked (frontier %v) allocated %.1f times per run, want 0", set.Frontier != nil, allocs)
		}
	}
	if frontier.Count() == 0 {
		t.Fatal("the Frontier histogram observed nothing; the second case is vacuous")
	}
}
