package sim

import (
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/hooks"
	"automatazoo/internal/telemetry"
)

// TestDisabledLiveTelemetryZeroAllocs guards the checked path with the
// live-ops surface fully disabled: with no governor, progress tracker,
// attribution ledger, or checkpointer attached, RunChecked must reduce
// to the exact Run fast path and stay allocation-free once warm — bare,
// and with only the Frontier histogram observing every symbol.
func TestDisabledLiveTelemetryZeroAllocs(t *testing.T) {
	a := literalAutomaton("abc", 1)
	frontier := telemetry.NewRegistry().Histogram("sim.frontier", telemetry.ExpBuckets(1, 16))
	for _, set := range []hooks.Set{{}, {Frontier: frontier}} {
		e := New(a)
		e.Attach(set)
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
			t.Fatalf("disabled-live RunChecked (frontier %v) allocated %.1f times per run, want 0", set.Frontier != nil, allocs)
		}
	}
	if frontier.Count() == 0 {
		t.Fatal("the Frontier histogram observed nothing; the second case is vacuous")
	}
}

// TestBitsetStepZeroAllocs guards the bitset frontier the same way: once
// its tables exist, a run that switches from the list to the bitset at the
// first block boundary and steps the rest densely allocates nothing, with
// and without counters (an STE pulses a counter, which chains into a second
// counter, which fires back into the ring).
func TestBitsetStepZeroAllocs(t *testing.T) {
	for _, counters := range []bool{false, true} {
		const n = 200
		b := automata.NewBuilder()
		for i := 0; i < n; i++ {
			st := automata.StartNone
			if i == 0 {
				st = automata.StartAllInput
			}
			b.AddSTE(charset.All(), st)
		}
		for i := 0; i < n; i++ {
			b.AddEdge(automata.StateID(i), automata.StateID((i+1)%n))
			b.AddEdge(automata.StateID(i), automata.StateID((i+3)%n))
		}
		b.SetReport(n-1, 1)
		if counters {
			c1 := b.AddCounter(3, automata.CountRollover)
			c2 := b.AddCounter(2, automata.CountRollover)
			b.SetReport(c2, 2)
			b.AddEdge(5, c1)
			b.AddEdge(c1, c2)
			b.AddEdge(c2, 7)
		}
		e := New(b.MustBuild())
		fired := 0
		e.OnReport = func(r Report) {
			if r.Code == 2 {
				fired++
			}
		}
		input := make([]byte, 1024)
		e.Run(input) // builds the bitset tables
		if !e.dense {
			t.Fatalf("counters %v: engine on the list after %d dense symbols (enabled %.1f per symbol)", counters, len(input), e.Stats().EnabledAvg())
		}
		if counters && fired == 0 {
			t.Fatalf("the chained counter never fired: %+v", e.Stats())
		}
		allocs := testing.AllocsPerRun(100, func() {
			e.Reset()
			e.Run(input)
		})
		if allocs != 0 {
			t.Fatalf("counters %v: bitset Run allocated %.1f times per run, want 0", counters, allocs)
		}
	}
}

// TestFrontierStepZeroAllocs: with the Frontier histogram attached, Step
// batches the frontier size in plain integers and allocates nothing, on
// the list (a literal on mostly idle input) and on the bitset (a busy
// ring); the Tally is allocated once, at Attach.
func TestFrontierStepZeroAllocs(t *testing.T) {
	idle := []byte("xxabcxxxxxxxabcabcxxxxxxxaxbxcabxcabcxxxxxxx")
	for _, c := range []struct {
		name  string
		a     *automata.Automaton
		input []byte
		dense bool
	}{
		{"list", literalAutomaton("abc", 1), idle, false},
		{"bitset", ringAutomaton(200), make([]byte, 512), true},
	} {
		frontier := telemetry.NewRegistry().Histogram("sim.frontier", telemetry.ExpBuckets(1, 16))
		e := New(c.a)
		e.Attach(hooks.Set{Frontier: frontier})
		for _, b := range c.input {
			e.Step(b)
		}
		if e.dense != c.dense {
			t.Fatalf("%s: engine dense %v after %d symbols", c.name, e.dense, len(c.input))
		}
		allocs := testing.AllocsPerRun(100, func() {
			for _, b := range c.input {
				e.Step(b)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: Step with the Frontier histogram attached allocated %.1f times per pass, want 0", c.name, allocs)
		}
		e.Flush()
		if frontier.Count() == 0 {
			t.Fatalf("%s: the histogram observed nothing", c.name)
		}
	}
}
