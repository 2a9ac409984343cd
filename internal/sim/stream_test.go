package sim_test

import (
	"reflect"
	"slices"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/sim"
)

// streamAutomaton mixes every stateful feature the capture/restore
// contract must carry: an all-input start, a multi-state chain (frontier
// depth), a latching counter, and a rollover counter chained off it.
func streamAutomaton() *automata.Automaton {
	b := automata.NewBuilder()
	s0 := b.AddSTE(charset.Single('a'), automata.StartAllInput)
	s1 := b.AddSTE(charset.Single('b'), automata.StartNone)
	s2 := b.AddSTE(charset.Single('c'), automata.StartNone)
	b.AddEdge(s0, s1)
	b.AddEdge(s1, s2)
	b.SetReport(s2, 1)

	c0 := b.AddCounter(3, automata.CountLatch)
	b.AddEdge(s0, c0)
	b.SetReport(c0, 2)
	c1 := b.AddCounter(2, automata.CountRollover)
	b.AddEdge(c0, c1)
	out := b.AddSTE(charset.All(), automata.StartNone)
	b.AddEdge(c1, out)
	b.SetReport(out, 3)

	sod := b.AddSTE(charset.All(), automata.StartOfData)
	b.SetReport(sod, 4)
	return b.MustBuild()
}

func streamInput(n int) []byte {
	out := make([]byte, n)
	pat := []byte("aabcaacbabcaba")
	for i := range out {
		out[i] = pat[i%len(pat)]
	}
	return out
}

// TestCaptureRestoreResumesExactly: scanning a prefix, capturing, and
// restoring into a FRESH engine must continue the logical stream exactly —
// same reports (absolute offsets), same summed stats, same final state.
func TestCaptureRestoreResumesExactly(t *testing.T) {
	a := streamAutomaton()
	input := streamInput(200)
	for _, cut := range []int{0, 1, 7, 100, 199, 200} {
		var want, got []sim.Report
		ref := sim.New(a)
		ref.OnReport = func(r sim.Report) { want = append(want, r) }
		refStats := ref.Run(input)

		head := sim.New(a)
		head.OnReport = func(r sim.Report) { got = append(got, r) }
		headStats := head.Run(input[:cut])
		snap := head.CaptureState()

		tail := sim.New(a)
		tail.OnReport = head.OnReport
		tail.RestoreState(snap)
		tailStats := tail.Run(input[cut:])

		if !slices.Equal(got, want) {
			t.Fatalf("cut %d: report streams differ: ref %d, stitched %d", cut, len(want), len(got))
		}
		sum := sim.Stats{
			Symbols:       headStats.Symbols + tailStats.Symbols,
			Enabled:       headStats.Enabled + tailStats.Enabled,
			Active:        headStats.Active + tailStats.Active,
			CounterPulses: headStats.CounterPulses + tailStats.CounterPulses,
			Reports:       headStats.Reports + tailStats.Reports,
		}
		if sum != refStats {
			t.Fatalf("cut %d: stats differ: ref %+v, stitched %+v", cut, refStats, sum)
		}
		if !reflect.DeepEqual(tail.CaptureState(), ref.CaptureState()) {
			t.Fatalf("cut %d: final stream states differ:\n ref  %+v\n tail %+v", cut, ref.CaptureState(), tail.CaptureState())
		}
	}
}

// TestFrontierSnapshotCanonical: snapshots are sorted sets, equal for
// engines at the same stream position regardless of construction order.
func TestFrontierSnapshotCanonical(t *testing.T) {
	a := streamAutomaton()
	e := sim.New(a)
	e.Run(streamInput(50))
	f := e.FrontierSnapshot()
	if !slices.IsSorted(f) {
		t.Fatalf("snapshot not sorted: %v", f)
	}
	// Mutating the snapshot must not touch the engine.
	for i := range f {
		f[i] = 0
	}
	g := e.FrontierSnapshot()
	if !slices.IsSorted(g) {
		t.Fatalf("snapshot aliased engine state: %v", g)
	}
}

// TestSetOffsetSuppressesStartOfData: an engine positioned mid-stream
// must not arm StartOfData states and must stamp absolute offsets on its
// reports.
func TestSetOffsetSuppressesStartOfData(t *testing.T) {
	b := automata.NewBuilder()
	sod := b.AddSTE(charset.All(), automata.StartOfData)
	b.SetReport(sod, 9)
	s := b.AddSTE(charset.Single('x'), automata.StartAllInput)
	b.SetReport(s, 1)
	a := b.MustBuild()

	e := sim.New(a)
	var reps []sim.Report
	e.OnReport = func(r sim.Report) { reps = append(reps, r) }
	e.SetOffset(100)
	for _, c := range []byte("axa") {
		e.Step(c)
	}
	if len(reps) != 1 || reps[0].Code != 1 || reps[0].Offset != 101 {
		t.Fatalf("want exactly one code-1 report at offset 101, got %+v", reps)
	}
}

// TestRestoreStateIsSelfContained: the snapshot shares no storage with
// the engine it came from — capturing, resetting the source, and
// restoring elsewhere still resumes correctly.
func TestRestoreStateIsSelfContained(t *testing.T) {
	a := streamAutomaton()
	input := streamInput(120)
	src := sim.New(a)
	src.Run(input[:60])
	snap := src.CaptureState()
	src.Reset()
	src.Run([]byte("zzzz")) // scribble on the source after capture

	ref := sim.New(a)
	ref.Run(input)

	dst := sim.New(a)
	dst.RestoreState(snap)
	dst.Run(input[60:])
	if !reflect.DeepEqual(dst.CaptureState(), ref.CaptureState()) {
		t.Fatal("restored engine diverged from the continuous reference")
	}
}
