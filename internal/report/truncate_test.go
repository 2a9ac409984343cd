package report

import (
	"bytes"
	"strings"
	"testing"

	"automatazoo/internal/guard"
)

// A truncated manifest must round-trip through JSON with its truncation
// flags intact, for every budget class the governor can trip.
func TestTruncatedManifestRoundTrip(t *testing.T) {
	for _, budget := range []string{
		guard.BudgetDeadline, guard.BudgetCanceled, guard.BudgetInputBytes,
		guard.BudgetCacheBytes, guard.BudgetActiveSet, guard.BudgetInjected,
	} {
		m := testManifest()
		m.Truncated = true
		m.TrippedBudget = budget
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: %v", budget, err)
		}
		if !got.Truncated || got.TrippedBudget != budget {
			t.Fatalf("%s: round-trip lost truncation: %+v", budget, got)
		}
	}
}

// A complete manifest must not serialize the truncation fields at all —
// pre-governor artifacts and fresh complete runs stay byte-identical.
func TestCompleteManifestOmitsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := testManifest().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "truncated") || strings.Contains(buf.String(), "tripped_budget") {
		t.Fatalf("complete manifest encodes truncation fields:\n%s", buf.String())
	}
}
