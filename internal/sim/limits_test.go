package sim

import (
	"bytes"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
)

// The one report path: every emit must feed both the stats count and
// OnReport, for STE-activation reports and counter-fire reports alike.

func TestOnReportFiresWithoutCollection(t *testing.T) {
	a := literalAutomaton("a", 7)
	e := New(a)
	var calls []Report
	e.OnReport = func(r Report) { calls = append(calls, r) }
	st := e.Run(bytes.Repeat([]byte("a"), 5))
	if len(calls) != 5 {
		t.Fatalf("OnReport calls=%d want 5", len(calls))
	}
	if st.Reports != 5 {
		t.Fatalf("stats.Reports=%d want 5", st.Reports)
	}
	if calls[2].Offset != 2 || calls[2].Code != 7 {
		t.Fatalf("callback report %+v, want offset 2 code 7", calls[2])
	}
}

// Counter-fire reports go through the same emit path: counting and
// OnReport both apply.
func TestCounterReportsThroughLimitingPaths(t *testing.T) {
	b := automata.NewBuilder()
	s := b.AddSTE(charset.Single('x'), automata.StartAllInput)
	c := b.AddCounter(1, automata.CountRollover)
	b.AddEdge(s, c)
	b.SetReport(c, 42)
	a := b.MustBuild()
	e := New(a)
	var calls int
	e.OnReport = func(r Report) {
		if r.Code != 42 {
			t.Errorf("callback code=%d want 42", r.Code)
		}
		calls++
	}
	st := e.Run([]byte("xxx"))
	if st.Reports != 3 || calls != 3 {
		t.Fatalf("stats=%d calls=%d, want 3/3", st.Reports, calls)
	}
}
