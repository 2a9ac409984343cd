package dfa

import (
	"math"
	"math/rand"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/sim"
)

// TestEmptyFrontierAlias pins the empty-frontier alias. A component with no
// start-of-data states has an empty initial frontier, so its dstate 1
// re-files the empty frontier that dstate 0 (dead) was filed under: every
// transition to the empty frontier lands on dstate 1, which is a hit on the
// next byte and never dead-elided. A component with start-of-data states
// keeps the empty frontier on dstate 0. Hit and miss counts in run's
// output depend on this.
func TestEmptyFrontierAlias(t *testing.T) {
	b := automata.NewBuilder()
	any := b.AddSTE(charset.Single('a'), automata.StartAllInput)
	anyR := b.AddSTE(charset.Single('b'), automata.StartNone)
	b.AddEdge(any, anyR)
	b.SetReport(anyR, 1)
	sod := b.AddSTE(charset.Single('a'), automata.StartOfData)
	sodR := b.AddSTE(charset.Single('b'), automata.StartNone)
	b.AddEdge(sod, sodR)
	b.SetReport(sodR, 2)
	a := b.MustBuild()

	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	ca, cs := e.compOf[any], e.compOf[sod]
	if d, _, ok := e.comps[ca].lookup(nil, hashFrontier(nil)); !ok || d != 1 {
		t.Fatalf("no start-of-data states: empty frontier filed under dstate %d (found %v), want 1", d, ok)
	}
	if d, _, ok := e.comps[cs].lookup(nil, hashFrontier(nil)); !ok || d != 0 {
		t.Fatalf("start-of-data states: empty frontier filed under dstate %d (found %v), want 0", d, ok)
	}
	s := e.Run([]byte("xx"))
	if e.comps[ca].cur != 1 || e.comps[cs].cur != 0 {
		t.Fatalf("after \"xx\": dstates %d and %d, want 1 (alias) and 0 (dead)", e.comps[ca].cur, e.comps[cs].cur)
	}
	// Byte 1 misses in both components; byte 2 hits dstate 1's cached
	// self-transition, and the dead component is elided.
	if s.CacheMisses != 2 || s.CacheHits != 1 || s.DFAStates != 4 || e.numLive() != 1 {
		t.Fatalf("stats %+v, %d live: want 2 misses, 1 hit, 4 dstates, 1 live", s, e.numLive())
	}
	if err := e.RestoreState(&sim.StreamState{Offset: 5}); err != nil {
		t.Fatal(err)
	}
	if e.comps[ca].cur != 1 || e.comps[cs].cur != 0 {
		t.Fatalf("restored empty frontier: dstates %d and %d, want 1 and 0", e.comps[ca].cur, e.comps[cs].cur)
	}
	compareWithRef(t, a, refConfigs[0], []byte("xxabxaabbab"))
}

// TestStepGenerationWrap sets the mark generation just below its wrap
// point after a short scan has left low generations in the marks, then
// scans on across the wrap, holding construction to the reference.
func TestStepGenerationWrap(t *testing.T) {
	wrapped := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := randomAutomaton(rng)
		input := randomInput(rng, 400)
		e, ref := newGoverned(t, a, refConfigs[0]), newRef(a, refConfigs[0])
		compareEngines(t, e, ref, input[:20])
		e.gen = math.MaxUint32 - 2
		compareEngines(t, e, ref, input[20:])
		if e.gen < math.MaxUint32-2 {
			wrapped++
		}
	}
	if wrapped < 30 {
		t.Fatalf("only %d of 60 scans stepped across the wrap", wrapped)
	}
}

// TestInternSurvivesHashCollisions forces whole families of frontiers onto
// one hash: the table must still tell them apart by content.
func TestInternSurvivesHashCollisions(t *testing.T) {
	saved := hashFrontier
	defer func() { hashFrontier = saved }()
	hashFrontier = func(f []automata.StateID) uint64 { return uint64(len(f) % 3) }
	for _, cfg := range refConfigs[:2] {
		for seed := int64(1); seed <= 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			compareWithRef(t, randomAutomaton(rng), cfg, randomInput(rng, 600))
		}
	}
	compareWithRef(t, budgetAutomaton(t, 9), refConfigs[0], budgetInput(rand.New(rand.NewSource(9)), 3000))
}
