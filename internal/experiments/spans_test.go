package experiments

import (
	"context"
	"math"
	"testing"
	"time"

	"automatazoo/internal/core"
	"automatazoo/internal/segment"
	"automatazoo/internal/telemetry"
)

// TestPerSecondClampsZeroElapsed is the divide-by-zero regression test
// for throughput rates: a zero (or negative) elapsed duration must yield
// a finite rate, never +Inf or NaN.
func TestPerSecondClampsZeroElapsed(t *testing.T) {
	for _, elapsed := range []time.Duration{0, -time.Second, time.Nanosecond} {
		got := perSecond(1000, elapsed)
		if math.IsInf(got, 0) || math.IsNaN(got) || got <= 0 {
			t.Errorf("perSecond(1000, %v) = %v, want finite positive", elapsed, got)
		}
	}
	if got := perSecond(0, 0); got != 0 {
		t.Errorf("perSecond(0, 0) = %v, want 0", got)
	}
	if got := perSecond(500, time.Second); got != 500 {
		t.Errorf("perSecond(500, 1s) = %v, want 500", got)
	}
}

// spanNames flattens a snapshot's root names in order.
func spanNames(snap []telemetry.SpanSnapshot) []string {
	names := make([]string, len(snap))
	for i, s := range snap {
		names[i] = s.Name
	}
	return names
}

// TestTableISpansDeterministicAcrossWorkers asserts the fork/adopt
// discipline: the span tree has one root per kernel in table order, with
// the same structure at any worker count.
func TestTableISpansDeterministicAcrossWorkers(t *testing.T) {
	cfg := core.Config{Scale: 0.01, InputBytes: 1000, Seed: 0xa20}
	var trees [][]telemetry.SpanSnapshot
	for _, workers := range []int{1, 4} {
		spans := telemetry.NewSpans()
		_, err := TableI(context.Background(), cfg, false, workers, 1, &Observer{Hooks: segment.Hooks{Spans: spans}})
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, spans.Snapshot())
	}
	benches := core.All()
	for _, snap := range trees {
		if len(snap) != len(benches) {
			t.Fatalf("span roots = %d, want one per kernel (%d)", len(snap), len(benches))
		}
		for i, b := range benches {
			if snap[i].Name != b.Name {
				t.Fatalf("root %d = %q, want table order %q", i, snap[i].Name, b.Name)
			}
			kids := spanNames(snap[i].Children)
			if len(kids) != 2 || kids[0] != "build" || kids[1] != "simulate" {
				t.Fatalf("%s children = %v, want [build simulate]", b.Name, kids)
			}
		}
	}
	// Structure (names, counts) matches across worker counts; nanos differ.
	for i := range trees[0] {
		if trees[0][i].Name != trees[1][i].Name || trees[0][i].Count != trees[1][i].Count {
			t.Errorf("root %d differs across workers: %+v vs %+v", i, trees[0][i], trees[1][i])
		}
	}
}

// TestTableISpansNilObserver asserts the disabled path stays a no-op.
func TestTableISpansNilObserver(t *testing.T) {
	cfg := core.Config{Scale: 0.01, InputBytes: 1000, Seed: 0xa20}
	if _, err := TableI(context.Background(), cfg, false, 2, 1, nil); err != nil {
		t.Fatal(err)
	}
}
