package sim

import (
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
)

// rearmAutomaton: s('a', all-input) → u('b', reports 1). u is the state the
// tests arm by hand via EnableState.
func rearmAutomaton() (*automata.Automaton, automata.StateID) {
	b := automata.NewBuilder()
	s := b.AddSTE(charset.Single('a'), automata.StartAllInput)
	u := b.AddSTE(charset.Single('b'), automata.StartNone)
	b.SetReport(u, 1)
	b.AddEdge(s, u)
	return b.MustBuild(), u
}

// Reset-then-rearm: a state enabled in the final cycle of the previous run
// must be armable again immediately after Reset. Reset's single generation
// bump keeps every stale mark <= gen-2, below EnableState's gen-1 dedupe
// value (the invariant is documented in Reset).
func TestEnableStateAfterReset(t *testing.T) {
	a, u := rearmAutomaton()
	e := New(a)
	e.Run([]byte("a")) // final cycle leaves u on the upcoming frontier
	e.Reset()
	e.EnableState(u)
	e.Step('b')
	if got := e.Stats().Reports; got != 1 {
		t.Fatalf("reset-then-rearm: got %d reports, want 1", got)
	}
}

// Arming must also survive repeated Reset/run cycles (the context-engine
// usage pattern: windows re-armed across many streams).
func TestEnableStateAcrossManyResets(t *testing.T) {
	a, u := rearmAutomaton()
	e := New(a)
	for i := 0; i < 100; i++ {
		e.Reset()
		e.EnableState(u)
		if got := int(e.Run([]byte("b")).Reports); got != 1 {
			t.Fatalf("iteration %d: reports=%d want 1", i, got)
		}
	}
}

// EnableState must dedupe against the live frontier even right after the
// generation counter wraps: the wrap path clears all marks, and before the
// fix the frontier's own marks were lost with them, so re-arming a state
// already on the frontier appended a duplicate (double-counting it in
// Stats.Enabled).
func TestEnableStateDedupeAcrossGenerationWrap(t *testing.T) {
	a, u := rearmAutomaton()
	e := New(a)
	e.gen = ^uint32(0) // next Step's trailing bump wraps
	e.Step('a')        // activates s, enables u for the next symbol
	if e.gen != 2 {
		t.Fatalf("gen=%d after wrap, want 2", e.gen)
	}
	if len(e.frontier) != 1 || e.frontier[0] != u {
		t.Fatalf("frontier=%v after wrap, want [%d]", e.frontier, u)
	}
	e.EnableState(u) // u is already armed: must coalesce
	if len(e.frontier) != 1 {
		t.Fatalf("frontier=%v: EnableState duplicated a frontier state across the wrap", e.frontier)
	}
	st := e.Run([]byte("b"))
	if st.Reports != 1 {
		t.Fatalf("reports=%d want 1", st.Reports)
	}
	if st.Enabled != 1 {
		t.Fatalf("Enabled=%d want 1 (no duplicate frontier entry)", st.Enabled)
	}
}

// A state NOT on the frontier must still be armable right after a wrap.
func TestEnableStateArmsAcrossGenerationWrap(t *testing.T) {
	a, u := rearmAutomaton()
	e := New(a)
	e.gen = ^uint32(0)
	e.Step('x') // nothing matches; wrap happens
	e.EnableState(u)
	if got := int(e.Run([]byte("b")).Reports); got != 1 {
		t.Fatalf("post-wrap arm: reports=%d want 1", got)
	}
}

// Mid-stream rearm between Steps (the documented usage) keeps working and
// coalescing: arming twice before one Step yields a single activation.
func TestEnableStateMidStreamCoalesces(t *testing.T) {
	a, u := rearmAutomaton()
	e := New(a)
	e.EnableState(u)
	e.EnableState(u)
	e.Step('b')
	st := e.Stats()
	if st.Reports != 1 || st.Enabled != 1 {
		t.Fatalf("stats=%+v, want 1 report from 1 enabled state", st)
	}
}
