package sim

import (
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
)

// The tests in this file pin the deterministic end-of-cycle counter
// resolution semantics: one count-enable per counter per cycle (STE pulses
// and same-cycle chained fires coalesce), ascending-ID seed order, FIFO
// cascade, and chained increments subject to the target comparison and the
// latch. Each was a bug flushed out by the internal/difftest oracle:
//
//   - fireCounters iterated a Go map, so counter-to-counter chains resolved
//     in randomized iteration order and multi-counter automata reported
//     nondeterministically run-to-run;
//   - chained increments were applied as a raw counterVal++ that bypassed
//     both the latch and the target comparison of the chained-into counter.

// chainPair builds: s('x', all-input) pulses c1; c1 chains into c2; c2
// reports with code 9. Optionally s also pulses c2 directly.
func chainPair(t1, t2 uint32, m1, m2 automata.CounterMode, directPulseC2 bool) *automata.Automaton {
	b := automata.NewBuilder()
	s := b.AddSTE(charset.Single('x'), automata.StartAllInput)
	c1 := b.AddCounter(t1, m1)
	c2 := b.AddCounter(t2, m2)
	b.SetReport(c2, 9)
	b.AddEdge(s, c1)
	if directPulseC2 {
		b.AddEdge(s, c2)
	}
	b.AddEdge(c1, c2)
	return b.MustBuild()
}

// Two chained counters pulsed in the same cycle: before the fix the report
// offset (and even the report count over a 1-symbol input) depended on map
// iteration order. Pinned semantics: c2's direct pulse and c1's same-cycle
// chained fire coalesce into ONE increment per cycle, so c2 (target 2)
// fires on the second symbol — identically on every run.
func TestChainedCountersDeterministic(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		a := chainPair(1, 2, automata.CountRollover, automata.CountRollover, true)
		e := New(a)
		reps := reportsOf(e, []byte("xx"))
		if len(reps) != 1 || reps[0].Offset != 1 || reps[0].Code != 9 {
			t.Fatalf("trial %d: reports=%v, want exactly [{1 _ 9}]", trial, reps)
		}
		// Coalescing: each cycle delivers one enable to c1 and one to c2.
		if got := e.Stats().CounterPulses; got != 4 {
			t.Fatalf("trial %d: CounterPulses=%d want 4", trial, got)
		}
	}
}

// A chained increment must run through the target comparison: c1 (target 1)
// fires every cycle and chains into c2 (target 2, never pulsed directly).
// Before the fix the chain was a raw counterVal++ and c2 never fired.
func TestChainedCounterFiresAtTarget(t *testing.T) {
	a := chainPair(1, 2, automata.CountRollover, automata.CountRollover, false)
	e := New(a)
	reps := reportsOf(e, []byte("xxx"))
	if len(reps) != 1 || reps[0].Offset != 1 {
		t.Fatalf("reports=%v, want one report at offset 1 (chained increments reach target)", reps)
	}
}

// A chained increment must respect the latch: once c2 (latch mode) fires,
// further chained fires are ignored and its value stays clamped at target.
// Before the fix the chain pushed the latched counter's value past target.
func TestChainedCounterRespectsLatch(t *testing.T) {
	a := chainPair(1, 1, automata.CountRollover, automata.CountLatch, false)
	e := New(a)
	reps := reportsOf(e, []byte("xxxxx"))
	if len(reps) != 1 || reps[0].Offset != 0 {
		t.Fatalf("reports=%v, want one latched report at offset 0", reps)
	}
	c2 := automata.StateID(2)
	if !e.ctr[c2].latched {
		t.Fatal("c2 not latched after firing")
	}
	if v := e.ctr[c2].val; v != 1 {
		t.Fatalf("latched counter value drifted to %d, want clamped at target 1", v)
	}
}

// Mutual chains must terminate: c1 and c2 fire into each other in the same
// cycle. The one-increment-per-counter-per-cycle rule bounds the cascade.
func TestChainedCounterCycleTerminates(t *testing.T) {
	b := automata.NewBuilder()
	s := b.AddSTE(charset.Single('x'), automata.StartAllInput)
	c1 := b.AddCounter(1, automata.CountRollover)
	c2 := b.AddCounter(1, automata.CountRollover)
	b.SetReport(c1, 1)
	b.SetReport(c2, 2)
	b.AddEdge(s, c1)
	b.AddEdge(c1, c2)
	b.AddEdge(c2, c1)
	a := b.MustBuild()
	e := New(a)
	reps := reportsOf(e, []byte("x"))
	// c1 fires from its pulse; its chain increments c2, which fires and
	// chains back — but c1 already consumed its one increment this cycle.
	if len(reps) != 2 || reps[0].Code != 1 || reps[1].Code != 2 {
		t.Fatalf("reports=%v, want codes [1 2] at offset 0", reps)
	}
}

// Resolution order is canonical (ascending counter ID), so the in-cycle
// report sequence of independent counters is stable run-to-run.
func TestCounterReportOrderCanonical(t *testing.T) {
	build := func() *automata.Automaton {
		b := automata.NewBuilder()
		s := b.AddSTE(charset.Single('x'), automata.StartAllInput)
		for i := 0; i < 6; i++ {
			c := b.AddCounter(1, automata.CountRollover)
			b.SetReport(c, int32(i))
			b.AddEdge(s, c)
		}
		return b.MustBuild()
	}
	for trial := 0; trial < 50; trial++ {
		e := New(build())
		reps := reportsOf(e, []byte("x"))
		if len(reps) != 6 {
			t.Fatalf("trial %d: %d reports, want 6", trial, len(reps))
		}
		for i, r := range reps {
			if r.Code != int32(i) {
				t.Fatalf("trial %d: report order %v not ascending by counter ID", trial, reps)
			}
		}
	}
}
