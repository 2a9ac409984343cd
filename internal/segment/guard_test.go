package segment_test

import (
	"context"
	"testing"
	"time"

	"automatazoo/internal/difftest"
	"automatazoo/internal/guard"
	"automatazoo/internal/randx"
	"automatazoo/internal/segment"
)

// TestInjectedTripClassIdenticalAcrossSegments: a fault injected at an
// engine chunk boundary must surface as the same structured trip class at
// every -segments value — a tripped segmented run cannot look like a
// different failure than the sequential one.
func TestInjectedTripClassIdenticalAcrossSegments(t *testing.T) {
	rng := randx.New(5)
	cfg := difftest.GenConfig{States: 16}
	a := difftest.Generate(rng.Fork(), cfg)
	input := difftest.GenInput(rng.Fork(), cfg, 64<<10)

	classes := map[int]string{}
	for _, segments := range []int{1, 2, 4} {
		inj, err := guard.ParseInjector("trip:sim.chunk:2", 0)
		if err != nil {
			t.Fatal(err)
		}
		gov := guard.New(context.Background(), guard.Budget{})
		gov.SetInjector(inj)
		res, err := segment.Run(context.Background(), a, input, segment.Options{
			Segments: segments, Workers: 4, Warmup: 256, Hooks: segment.Hooks{Governor: gov},
		})
		trip := guard.AsTrip(err)
		if trip == nil {
			t.Fatalf("segments=%d: want a trip, got %v", segments, err)
		}
		classes[segments] = trip.Budget
		if res.Stats.Symbols >= int64(len(input)) {
			t.Fatalf("segments=%d: tripped run consumed the whole stream (%d symbols)", segments, res.Stats.Symbols)
		}
	}
	if classes[1] != classes[2] || classes[1] != classes[4] {
		t.Fatalf("fault class differs across segment counts: %v", classes)
	}
	if classes[1] != guard.BudgetInjected {
		t.Fatalf("want %q, got %q", guard.BudgetInjected, classes[1])
	}
}

// TestStallMidSegmentUnwindsAllWorkers: a stall: fault parks one segment
// worker at its chunk boundary; the deadline budget trips the governor,
// which must release the stalled worker AND stop every other segment
// cooperatively — segment.Run returning at all is the unwind proof, and
// the class must match the unsegmented run's.
func TestStallMidSegmentUnwindsAllWorkers(t *testing.T) {
	rng := randx.New(6)
	cfg := difftest.GenConfig{States: 16}
	a := difftest.Generate(rng.Fork(), cfg)
	input := difftest.GenInput(rng.Fork(), cfg, 64<<10)

	classes := map[int]string{}
	for _, segments := range []int{1, 4} {
		inj, err := guard.ParseInjector("stall:sim.chunk:3", 0)
		if err != nil {
			t.Fatal(err)
		}
		gov := guard.New(context.Background(), guard.Budget{Timeout: 300 * time.Millisecond})
		gov.SetInjector(inj)
		done := make(chan error, 1)
		go func() {
			_, err := segment.Run(context.Background(), a, input, segment.Options{
				Segments: segments, Workers: 4, Warmup: 256, Hooks: segment.Hooks{Governor: gov},
			})
			done <- err
		}()
		select {
		case err := <-done:
			trip := guard.AsTrip(err)
			if trip == nil {
				t.Fatalf("segments=%d: want a trip, got %v", segments, err)
			}
			classes[segments] = trip.Budget
		case <-time.After(10 * time.Second):
			t.Fatalf("segments=%d: segment workers did not unwind after the stall tripped", segments)
		}
	}
	if classes[1] != classes[4] {
		t.Fatalf("stall fault class differs across segment counts: %v", classes)
	}
	if classes[1] != guard.BudgetDeadline {
		t.Fatalf("want %q, got %q", guard.BudgetDeadline, classes[1])
	}
}

// TestInputByteBudgetTripsTruncated: a MaxInputBytes budget must truncate
// a segmented run mid-stream with the input-bytes class, like sequential.
func TestInputByteBudgetTripsTruncated(t *testing.T) {
	rng := randx.New(8)
	cfg := difftest.GenConfig{States: 12}
	a := difftest.Generate(rng.Fork(), cfg)
	input := difftest.GenInput(rng.Fork(), cfg, 64<<10)
	gov := guard.New(context.Background(), guard.Budget{MaxInputBytes: 16 << 10})
	_, err := segment.Run(context.Background(), a, input, segment.Options{
		Segments: 4, Workers: 4, Warmup: 128, Hooks: segment.Hooks{Governor: gov},
	})
	trip := guard.AsTrip(err)
	if trip == nil || trip.Budget != guard.BudgetInputBytes {
		t.Fatalf("want input-bytes trip, got %v", err)
	}
}
