package dfa_test

import (
	"cmp"
	"context"
	"reflect"
	"slices"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/dfa"
	"automatazoo/internal/difftest"
	"automatazoo/internal/guard"
	"automatazoo/internal/hooks"
	"automatazoo/internal/randx"
	"automatazoo/internal/sim"
)

// record points e's OnReport at the list *reps.
func record(e *dfa.Engine, reps *[]sim.Report) {
	e.OnReport = func(r sim.Report) { *reps = append(*reps, r) }
}

// TestDFACaptureRestoreResumesExactly: scanning a prefix, capturing, and
// restoring into a FRESH engine must continue the logical stream exactly —
// the stitched report stream matches the continuous run byte for byte.
func TestDFACaptureRestoreResumesExactly(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		rng := randx.New(seed)
		cfg := difftest.GenConfig{States: 16}
		a := difftest.Generate(rng.Fork(), cfg)
		input := difftest.GenInput(rng.Fork(), cfg, 2000)

		ref, err := dfa.New(a)
		if err != nil {
			t.Fatal(err)
		}
		var want []sim.Report
		record(ref, &want)
		ref.Run(input)

		for _, cut := range []int{0, 1, 137, 1000, 1999, 2000} {
			head, err := dfa.New(a)
			if err != nil {
				t.Fatal(err)
			}
			var got []sim.Report
			record(head, &got)
			head.Run(input[:cut])
			snap := head.CaptureState()

			tail, err := dfa.New(a)
			if err != nil {
				t.Fatal(err)
			}
			record(tail, &got)
			if err := tail.RestoreState(snap); err != nil {
				t.Fatalf("seed %d cut %d: RestoreState: %v", seed, cut, err)
			}
			tail.Run(input[cut:])

			if !slices.Equal(got, want) {
				t.Fatalf("seed %d cut %d: report streams differ: ref %d, stitched %d",
					seed, cut, len(want), len(got))
			}
			if !reflect.DeepEqual(tail.CaptureState(), ref.CaptureState()) {
				t.Fatalf("seed %d cut %d: final stream states differ", seed, cut)
			}
		}
	}
}

// TestDFARestoreAcrossDegradationBoundary: a snapshot is a frontier set,
// not a dstate index, so it must restore across engines in different
// degradation states — cached→fallback and fallback→cached both resume
// with the report stream of the continuous cached run, in canonical order
// within an offset (the cached components report before the fallback).
// The fallback engine is starved: a one-byte governor cache budget
// degrades each component at its first construction.
func TestDFARestoreAcrossDegradationBoundary(t *testing.T) {
	rng := randx.New(21)
	cfg := difftest.GenConfig{States: 16}
	a := difftest.Generate(rng.Fork(), cfg)
	input := difftest.GenInput(rng.Fork(), cfg, 3000)
	cut := 1500

	ref, err := dfa.New(a)
	if err != nil {
		t.Fatal(err)
	}
	var want []sim.Report
	record(ref, &want)
	ref.Run(input)
	canon := func(rs []sim.Report) {
		slices.SortFunc(rs, func(x, y sim.Report) int {
			return cmp.Or(cmp.Compare(x.Offset, y.Offset), cmp.Compare(x.Code, y.Code))
		})
	}
	canon(want)
	engine := func(starved bool) *dfa.Engine {
		e, err := dfa.New(a)
		if err != nil {
			t.Fatal(err)
		}
		if starved {
			e.Attach(hooks.Set{Governor: guard.New(context.Background(), guard.Budget{MaxCacheBytes: 1})})
		}
		return e
	}

	for _, dir := range []struct {
		name        string
		headStarved bool
	}{
		{"cached head, fallback tail", false},
		{"fallback head, cached tail", true},
	} {
		head := engine(dir.headStarved)
		var got []sim.Report
		record(head, &got)
		head.Run(input[:cut])
		snap := head.CaptureState()

		tail := engine(!dir.headStarved)
		record(tail, &got)
		if err := tail.RestoreState(snap); err != nil {
			t.Fatalf("%s: RestoreState: %v", dir.name, err)
		}
		tail.Run(input[cut:])
		if head.CacheStats().Fallbacks+tail.CacheStats().Fallbacks == 0 {
			t.Fatalf("%s: neither engine degraded", dir.name)
		}

		canon(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: report streams differ: ref %d, stitched %d", dir.name, len(want), len(got))
		}
	}
}

// TestDFARestoreResumeOnSameEngine: chunked scanning on ONE engine via
// periodic capture/restore (the cmd-layer segmented-DFA pattern) must sum
// per-chunk stats to the continuous totals for the per-stream fields.
func TestDFARestoreResumeOnSameEngine(t *testing.T) {
	rng := randx.New(33)
	cfg := difftest.GenConfig{States: 16}
	a := difftest.Generate(rng.Fork(), cfg)
	input := difftest.GenInput(rng.Fork(), cfg, 4000)

	ref, err := dfa.New(a)
	if err != nil {
		t.Fatal(err)
	}
	var want, got []sim.Report
	record(ref, &want)
	refStats := ref.Run(input)

	e, err := dfa.New(a)
	if err != nil {
		t.Fatal(err)
	}
	record(e, &got)
	var symbols, reports int64
	for lo := 0; lo < len(input); lo += 1000 {
		hi := min(lo+1000, len(input))
		snap := e.CaptureState()
		if err := e.RestoreState(snap); err != nil {
			t.Fatalf("chunk at %d: RestoreState: %v", lo, err)
		}
		st := e.Run(input[lo:hi])
		symbols += st.Symbols
		reports += st.Reports
	}
	if symbols != refStats.Symbols || reports != refStats.Reports {
		t.Fatalf("summed per-chunk stats diverge: symbols %d/%d, reports %d/%d",
			symbols, refStats.Symbols, reports, refStats.Reports)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("chunked report stream differs: ref %d, chunked %d", len(want), len(got))
	}
}

// TestDFARestoreComponentMismatch: a snapshot from a different automaton
// — one naming states this automaton does not have, or holding counter
// values — is rejected, not silently misapplied, and leaves the engine
// as it was.
func TestDFARestoreComponentMismatch(t *testing.T) {
	rng := randx.New(44)
	b := difftest.Generate(rng.Fork(), difftest.GenConfig{States: 4})
	eb, err := dfa.New(b)
	if err != nil {
		t.Fatal(err)
	}
	before := eb.CaptureState()
	for _, bad := range []*sim.StreamState{
		{Offset: 7, Frontier: []automata.StateID{0, automata.StateID(b.NumStates())}},
		{Offset: 7, Counters: []sim.CounterSnapshot{{ID: 0, Value: 1}}},
	} {
		if err := eb.RestoreState(bad); err == nil {
			t.Fatalf("RestoreState accepted a snapshot from a different automaton: %+v", bad)
		}
		if got := eb.CaptureState(); !reflect.DeepEqual(got, before) {
			t.Fatalf("a rejected restore changed the engine: %+v, was %+v", got, before)
		}
	}
}
