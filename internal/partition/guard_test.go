package partition

import (
	"context"
	"errors"
	"testing"
	"time"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/guard"
	"automatazoo/internal/parallel"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
)

// wideAutomaton builds nComp independent star components, each reporting
// on every byte.
func wideAutomaton(t *testing.T, nComp int) *automata.Automaton {
	t.Helper()
	b := automata.NewBuilder()
	for i := 0; i < nComp; i++ {
		s := b.AddSTE(charset.All(), automata.StartAllInput)
		r := b.AddSTE(charset.All(), automata.StartNone)
		b.SetReport(r, int32(i))
		b.AddEdge(s, r)
	}
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// Mid-run cancellation at workers > 1: cancellation raised while slices
// are mid-stream must stop the run within chunk granularity, not run
// every pass to completion. This pins the satellite contract that ctx
// observability reaches inside a slice (via the implicit ctx-only
// governor), not just between slice claims.
func TestRunParallelMidRunCancellation(t *testing.T) {
	a := wideAutomaton(t, 8)
	p := ForWorkers(a, 4)
	input := make([]byte, 8<<20) // large enough that passes take a while
	ctx, cancel := context.WithCancel(context.Background())
	var reports int
	done := make(chan struct{})
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
		close(done)
	}()
	res, err := p.Run(ctx, [][]byte{input}, RunOptions{
		Workers:  4,
		OnReport: func(sim.Report) { reports++ },
	})
	<-done
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if reports != 0 {
		t.Fatalf("cancelled run delivered %d reports", reports)
	}
	// The run must have stopped early: total symbols strictly less than a
	// full run's Passes × len(input).
	full := int64(p.Passes()) * int64(len(input))
	if res.Symbols >= full {
		t.Fatalf("run consumed all %d symbols despite mid-run cancellation", res.Symbols)
	}
}

// A background (non-cancellable) ctx with no governor must keep the exact
// ungoverned path: identical Result to the sequential reference.
func TestRunBackgroundCtxMatchesSequential(t *testing.T) {
	a := wideAutomaton(t, 4)
	p := ForWorkers(a, 2)
	input := make([]byte, 10_000)
	_, want := canonical(t, p, input)
	got, err := p.Run(context.Background(), [][]byte{input}, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Result %+v != sequential %+v", got, want)
	}
}

// An explicit governor bounds the whole fan-out: the input-byte budget is
// shared across slices, and the trip error surfaces from Run.
func TestRunGovernedInputBudget(t *testing.T) {
	a := wideAutomaton(t, 8)
	p := ForWorkers(a, 4)
	input := make([]byte, 1<<20)
	g := guard.New(context.Background(), guard.Budget{MaxInputBytes: 64 << 10})
	_, err := p.Run(context.Background(), [][]byte{input}, RunOptions{Workers: 4, Hooks: segment.Hooks{Governor: g}})
	trip := guard.AsTrip(err)
	if trip == nil || trip.Budget != guard.BudgetInputBytes {
		t.Fatalf("want input-bytes trip, got %v", err)
	}
	if g.Err() == nil {
		t.Fatal("governor did not record the trip")
	}
}

// Injected panic at the partition.slice boundary is isolated by the
// worker pool and surfaces as *parallel.PanicError at any worker count.
func TestRunGovernedInjectedPanicIsolated(t *testing.T) {
	for _, workers := range []int{1, 4} {
		a := wideAutomaton(t, 8)
		p := ForWorkers(a, 4)
		inj, err := guard.ParseInjector("panic:partition.slice:2", 0)
		if err != nil {
			t.Fatal(err)
		}
		g := guard.New(context.Background(), guard.Budget{})
		g.SetInjector(inj)
		_, err = p.Run(context.Background(), [][]byte{make([]byte, 1000)}, RunOptions{Workers: workers, Hooks: segment.Hooks{Governor: g}})
		var pe *parallel.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want *parallel.PanicError, got %T %v", workers, err, err)
		}
		ip, ok := pe.Value.(guard.InjectedPanic)
		if !ok || ip.Site != guard.SitePartitionSlice {
			t.Fatalf("workers=%d: panic value %v", workers, pe.Value)
		}
	}
}

// An injected trip inside a slice's scan (the sim.chunk boundary) stops
// the fan-out with the injected fault class at any worker count. scan.Run
// gives a run whose governor carries an injector no slices, so this is
// where sliced scans meet injected trips.
func TestRunGovernedInjectedTrip(t *testing.T) {
	for _, workers := range []int{1, 4} {
		a := wideAutomaton(t, 8)
		p := ForWorkers(a, 4)
		inj, err := guard.ParseInjector("trip:sim.chunk:2", 0)
		if err != nil {
			t.Fatal(err)
		}
		g := guard.New(context.Background(), guard.Budget{})
		g.SetInjector(inj)
		_, err = p.Run(context.Background(), [][]byte{make([]byte, 1<<20)}, RunOptions{Workers: workers, Hooks: segment.Hooks{Governor: g}})
		trip := guard.AsTrip(err)
		if trip == nil || trip.Budget != guard.BudgetInjected || trip.Site != guard.SiteSimChunk {
			t.Fatalf("workers=%d: want an injected trip at sim.chunk, got %v", workers, err)
		}
	}
}
