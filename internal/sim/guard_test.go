package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/guard"
	"automatazoo/internal/hooks"
)

// governed engines over a tiny star automaton: start state matching any
// byte into a report state.
func guardTestAutomaton(t *testing.T) *automata.Automaton {
	t.Helper()
	b := automata.NewBuilder()
	s := b.AddSTE(charset.All(), automata.StartAllInput)
	r := b.AddSTE(charset.All(), automata.StartNone)
	b.SetReport(r, 1)
	b.AddEdge(s, r)
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRunCheckedUngovernedMatchesRun(t *testing.T) {
	a := guardTestAutomaton(t)
	input := make([]byte, 10_000)
	for i := range input {
		input[i] = byte(i)
	}
	e1 := New(a)
	want := e1.Run(input)
	e2 := New(a)
	got, err := e2.RunChecked(input)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("ungoverned RunChecked stats %+v != Run stats %+v", got, want)
	}
}

func TestRunCheckedGovernedUnlimitedMatchesRun(t *testing.T) {
	a := guardTestAutomaton(t)
	input := make([]byte, 10_000)
	e1 := New(a)
	want := e1.Run(input)
	e2 := New(a)
	e2.Attach(hooks.Set{Governor: guard.New(context.Background(), guard.Budget{})})
	got, err := e2.RunChecked(input)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("governed-unlimited stats %+v != Run stats %+v", got, want)
	}
}

func TestRunCheckedInputBudgetTruncates(t *testing.T) {
	a := guardTestAutomaton(t)
	input := make([]byte, 50_000)
	e := New(a)
	e.Attach(hooks.Set{Governor: guard.New(context.Background(), guard.Budget{MaxInputBytes: 10_000})})
	stats, err := e.RunChecked(input)
	trip := guard.AsTrip(err)
	if trip == nil || trip.Budget != guard.BudgetInputBytes {
		t.Fatalf("want input-bytes trip, got %v", err)
	}
	// Consumed symbols stop within one chunk of the budget.
	if stats.Symbols == 0 || stats.Symbols > 10_000 {
		t.Fatalf("symbols consumed %d, want in (0, 10000]", stats.Symbols)
	}
}

func TestRunCheckedActiveSetBudgetTrips(t *testing.T) {
	a := guardTestAutomaton(t)
	e := New(a)
	// The star automaton's frontier never exceeds 1 state, so budget 1
	// must let it run to completion.
	e.Attach(hooks.Set{Governor: guard.New(context.Background(), guard.Budget{MaxActiveSet: 1})})
	if _, err := e.RunChecked(make([]byte, 8192)); err != nil {
		t.Fatalf("frontier of 1 within budget 1: %v", err)
	}
	// A 4-chain automaton holds a 4-state frontier; budget 2 must trip.
	b := automata.NewBuilder()
	for i := 0; i < 4; i++ {
		s := b.AddSTE(charset.All(), automata.StartAllInput)
		n := b.AddSTE(charset.All(), automata.StartNone)
		b.AddEdge(s, n)
		b.AddEdge(n, n)
	}
	wide, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	we := New(wide)
	we.Attach(hooks.Set{Governor: guard.New(context.Background(), guard.Budget{MaxActiveSet: 2})})
	_, err = we.RunChecked(make([]byte, 8192))
	trip := guard.AsTrip(err)
	if trip == nil || trip.Budget != guard.BudgetActiveSet {
		t.Fatalf("want active-set trip, got %v", err)
	}
}

func TestRunCheckedDeadline(t *testing.T) {
	a := guardTestAutomaton(t)
	e := New(a)
	g := guard.New(context.Background(), guard.Budget{Timeout: time.Nanosecond})
	e.Attach(hooks.Set{Governor: g})
	time.Sleep(time.Millisecond)
	_, err := e.RunChecked(make([]byte, 100_000))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline trip, got %v", err)
	}
}

func TestRunCheckedInjectedTrip(t *testing.T) {
	a := guardTestAutomaton(t)
	inj, err := guard.ParseInjector("trip:sim.chunk:2", 0)
	if err != nil {
		t.Fatal(err)
	}
	g := guard.New(context.Background(), guard.Budget{})
	g.SetInjector(inj)
	e := New(a)
	e.Attach(hooks.Set{Governor: g})
	stats, err := e.RunChecked(make([]byte, 20_000))
	trip := guard.AsTrip(err)
	if trip == nil || !trip.Injected {
		t.Fatalf("want injected trip, got %v", err)
	}
	if stats.Symbols != 4096 {
		t.Fatalf("exactly one chunk should have run before the hit-2 fault, got %d symbols", stats.Symbols)
	}
}
