package sim

import (
	"testing"

	"automatazoo/internal/hooks"
	"automatazoo/internal/telemetry"
)

// TestNilTelemetryZeroAllocs is the benchmark guard for the disabled
// telemetry path: with no hook attached, Run must not allocate at all
// once the engine is warm.
func TestNilTelemetryZeroAllocs(t *testing.T) {
	a := literalAutomaton("abc", 1)
	e := New(a)
	e.Attach(hooks.Set{}) // explicit: the disabled hook path is part of the guard
	input := []byte("xxabcxxabcabcxaxbxcabxcabc")
	// Warm: establish frontier slice capacities.
	e.Reset()
	e.Run(input)
	allocs := testing.AllocsPerRun(200, func() {
		e.Reset()
		e.Run(input)
	})
	if allocs != 0 {
		t.Fatalf("nil-telemetry Run allocated %.1f times per run, want 0", allocs)
	}
}

func TestStateProfileCounts(t *testing.T) {
	a := literalAutomaton("ab", 7)
	e := New(a)
	prof := telemetry.NewStateProfile(a.NumStates())
	e.Attach(hooks.Set{Tracer: prof})
	e.Run([]byte("abab"))
	// State 0 ('a', all-input start) matches at offsets 0 and 2; state 1
	// ('b') is enabled after each 'a' and matches at offsets 1 and 3.
	if got := prof.Activations[0]; got != 2 {
		t.Errorf("state 0 activations = %d, want 2", got)
	}
	if got := prof.Activations[1]; got != 2 {
		t.Errorf("state 1 activations = %d, want 2", got)
	}
	if total := prof.TotalActivations(); total != 4 {
		t.Errorf("total activations = %d, want 4", total)
	}
	top := prof.TopK(10, nil)
	if len(top) != 2 {
		t.Fatalf("TopK entries = %d, want 2", len(top))
	}
	if top[0].Share+top[1].Share < 0.999 {
		t.Errorf("shares should sum to 1: %v", top)
	}
	// The profile accumulates across the engine's Reset.
	e.Reset()
	e.Run([]byte("ab"))
	if got := prof.Activations[0]; got != 3 {
		t.Errorf("accumulated activations = %d, want 3", got)
	}
}

// recordingTracer counts events per kind.
type recordingTracer struct {
	symbols, activates, reports, cache int
	lastReportState                    uint32
	lastReportCode                     int32
}

func (r *recordingTracer) OnSymbol(offset int64, b byte)     { r.symbols++ }
func (r *recordingTracer) OnActivate(offset int64, s uint32) { r.activates++ }
func (r *recordingTracer) OnReport(offset int64, s uint32, c int32) {
	r.reports++
	r.lastReportState = s
	r.lastReportCode = c
}
func (r *recordingTracer) OnCacheEvent(offset int64, comp int, k telemetry.CacheEventKind) {
	r.cache++
}

func TestTracerEventStream(t *testing.T) {
	a := literalAutomaton("ab", 9)
	e := New(a)
	tr := &recordingTracer{}
	e.Attach(hooks.Set{Tracer: tr})
	st := e.Run([]byte("abxab"))
	if tr.symbols != 5 {
		t.Errorf("symbol events = %d, want 5", tr.symbols)
	}
	if int64(tr.activates) != st.Active {
		t.Errorf("activate events = %d, want %d", tr.activates, st.Active)
	}
	if int64(tr.reports) != st.Reports || tr.reports != 2 {
		t.Errorf("report events = %d, want 2", tr.reports)
	}
	if tr.lastReportCode != 9 {
		t.Errorf("last report code = %d, want 9", tr.lastReportCode)
	}
	// Detaching stops the stream.
	e.Attach(hooks.Set{})
	e.Reset()
	e.Run([]byte("ab"))
	if tr.symbols != 5 {
		t.Errorf("detached tracer still receiving events")
	}
}

// TestStatsZeroInput is the divide-by-zero hardening audit: every rate
// accessor must return 0, not NaN, on an empty run.
func TestStatsZeroInput(t *testing.T) {
	cases := []struct {
		name string
		fn   func(Stats) float64
	}{
		{"ActiveAvg", Stats.ActiveAvg},
		{"EnabledAvg", Stats.EnabledAvg},
		{"ReportRate", Stats.ReportRate},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.fn(Stats{}); got != 0 {
				t.Errorf("%s on zero Stats = %v, want 0", tc.name, got)
			}
		})
	}
	// And on a live engine that consumed nothing.
	e := New(literalAutomaton("x", 0))
	st := e.Run(nil)
	if st.ActiveAvg() != 0 || st.EnabledAvg() != 0 || st.ReportRate() != 0 {
		t.Errorf("empty run rates = %v %v %v, want all 0",
			st.ActiveAvg(), st.EnabledAvg(), st.ReportRate())
	}
}
