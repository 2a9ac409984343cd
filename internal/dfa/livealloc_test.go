package dfa

import (
	"runtime"
	"testing"

	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/core"
	"automatazoo/internal/hooks"
)

// TestDisabledLiveTelemetryZeroAllocs: with no governor, progress
// tracker, attribution ledger, or checkpointer attached, the DFA
// engine's RunChecked must reduce to the exact Run fast path and stay
// allocation-free once the transition cache is warm, also where idle
// components are skipped.
func TestDisabledLiveTelemetryZeroAllocs(t *testing.T) {
	snort, snortInput := kernel(t, "Snort", 0.005, 2048)
	for _, k := range []struct {
		name  string
		a     *automata.Automaton
		input []byte
	}{
		{"literals", compile(t, "abc", "bca"), []byte("xxabcxxabcabcxaxbxcabxcabcbcabca")},
		// Signature components that sit idle between wake bytes.
		{"Snort", snort, snortInput},
	} {
		e, err := New(k.a)
		if err != nil {
			t.Fatal(err)
		}
		e.Attach(hooks.Set{})
		e.Reset()
		if _, err := e.RunChecked(k.input); err != nil {
			t.Fatal(err)
		}
		if idleComponents(e) == 0 {
			t.Fatalf("%s: no component idles at the end of the scan", k.name)
		}
		allocs := testing.AllocsPerRun(200, func() {
			e.Reset()
			e.RunChecked(k.input)
		})
		if allocs != 0 {
			t.Fatalf("%s: disabled-live RunChecked allocated %.1f times per run, want 0", k.name, allocs)
		}
	}
}

// TestFallbackStepZeroAllocs: under a one-byte governor cache budget every
// component degrades to the fallback, a sim engine, so once the degraded
// set has stopped growing a fallback scan allocates nothing — also with a
// ledger attached, which charges the fallback's frontier every byte.
func TestFallbackStepZeroAllocs(t *testing.T) {
	a, input := kernel(t, "Hamming 18x3", 0.005, 2048)
	for _, ledger := range []bool{false, true} {
		e := newGoverned(t, a, refConfig{cacheBudget: 1})
		if ledger {
			coll := attr.NewCollector(a, attr.FromComponents(a, "c"))
			e.Attach(hooks.Set{Governor: e.h.Governor, Ledger: coll.Ledger(coll.GlobalCompOf())})
		}
		e.Run(input)
		if len(e.degraded) != len(e.comps) {
			t.Fatalf("%d of %d components degraded under a one-byte cache budget", len(e.degraded), len(e.comps))
		}
		allocs := testing.AllocsPerRun(20, func() {
			e.Reset()
			e.Run(input)
		})
		if allocs != 0 {
			t.Fatalf("fallback scan (ledger %v) allocated %.1f times per run, want 0", ledger, allocs)
		}
		if s := e.CacheStats(); s.FallbackBytes == 0 {
			t.Fatalf("stats %+v: the scan did not run degraded", s)
		}
	}
}

// kernel builds a suite kernel and its standard input.
func kernel(t *testing.T, name string, scale float64, input int) (*automata.Automaton, []byte) {
	t.Helper()
	bm, err := core.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	a, segs, err := bm.Build(core.Config{Scale: scale, InputBytes: input, Seed: 0xa20})
	if err != nil {
		t.Fatal(err)
	}
	return a, segs[0]
}

// TestConstructAllocsPerDstate: subset construction appends to flat
// per-component arrays, so a cold scan that interns thousands of dstates
// allocates at most once per new dstate, amortised.
func TestConstructAllocsPerDstate(t *testing.T) {
	a, input := kernel(t, "Hamming 18x3", 0.02, 8192)
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	before := e.CacheStats().DFAStates
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e.Run(input)
	runtime.ReadMemStats(&m1)
	built := e.CacheStats().DFAStates - before
	if built < 1000 {
		t.Fatalf("only %d dstates built: the scan does not exercise construction", built)
	}
	per := float64(m1.Mallocs-m0.Mallocs) / float64(built)
	t.Logf("%d dstates, %.3f allocations each", built, per)
	if per > 1 {
		t.Fatalf("%.2f allocations per new dstate (%d dstates), want <= 1", per, built)
	}
}
