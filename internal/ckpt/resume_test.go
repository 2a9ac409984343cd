// The recovery property of the checkpoint format, exercised through the
// scan driver (internal/scan) that writes and resumes it.
package ckpt_test

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	. "automatazoo/internal/ckpt"
	"automatazoo/internal/dfa"
	"automatazoo/internal/guard"
	"automatazoo/internal/hooks"
	"automatazoo/internal/randx"
	"automatazoo/internal/scan"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
	"automatazoo/internal/telemetry"
)

// testAutomaton builds a small deterministic workload: a one-symbol
// reporter, a two-symbol chain, and a latching counter — every state
// class the sim snapshot codec serializes.
func testAutomaton() *automata.Automaton {
	b := automata.NewBuilder()
	s1 := b.AddSTE(charset.Single('a'), automata.StartAllInput)
	b.SetReport(s1, 1)
	h := b.AddSTE(charset.Single('a'), automata.StartAllInput)
	tail := b.AddSTE(charset.Single('b'), automata.StartNone)
	b.AddEdge(h, tail)
	b.SetReport(tail, 2)
	p := b.AddSTE(charset.Single('c'), automata.StartAllInput)
	latch := b.AddCounter(2, automata.CountLatch)
	b.AddEdge(p, latch)
	b.SetReport(latch, 3)
	roll := b.AddCounter(3, automata.CountRollover)
	b.AddEdge(p, roll)
	b.SetReport(roll, 4)
	return b.MustBuild()
}

func testInput(n int, seed uint64) []byte {
	rng := randx.New(seed)
	alphabet := []byte("aabbcx")
	out := make([]byte, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return out
}

type scanOutcome struct {
	events []sim.Report
	res    scan.Result
	snap   telemetry.Snapshot
	attr   []attr.Cost
	saves  int64
	err    error
}

// runScanAttempt runs one process lifetime of a checkpointed scan —
// fresh engine, fresh registry and collector (re-seeded from the
// checkpoint on resume) — mirroring what cmd/azoo's run and resume do.
func runScanAttempt(t *testing.T, a *automata.Automaton, streams [][]byte, workers, segments int,
	path string, interval int64, gov *guard.Governor, start *Checkpoint,
) scanOutcome {
	t.Helper()
	reg := telemetry.NewRegistry()
	col := attr.NewCollector(a, attr.FromComponents(a, "rule-"))
	sv := &Saver{Path: path, Interval: interval,
		Meta: Meta{Command: "test", Engine: "nfa", Interval: interval, Workers: workers, Segments: segments}}
	var out scanOutcome
	out.res, out.err = scan.Run(context.Background(), a, streams, scan.Spec{
		Hooks:    segment.Hooks{Registry: reg, Governor: gov, Attribution: col},
		Workers:  workers,
		Segments: segments,
		Warmup:   48,
		Saver:    sv,
		Start:    start,
		OnReport: func(r sim.Report) { out.events = append(out.events, r) },
	})
	out.snap = reg.Snapshot()
	out.attr = col.Fold()
	out.saves = out.snap.Counters["ckpt.saves"]
	return out
}

func canonReports(evs []sim.Report) []sim.Report {
	out := append([]sim.Report(nil), evs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j].Offset < out[j-1].Offset ||
			(out[j].Offset == out[j-1].Offset && out[j].Code < out[j-1].Code)); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	for i := range out {
		out[i].State = 0 // restore re-arms the frontier canonically; state identity is not comparable
	}
	return out
}

// The core recovery property, exercised at EVERY save point: a run
// killed at its Nth save (periodic, chunk, or stream-end) and resumed
// must reproduce the uninterrupted run's stats, canonical report
// stream, telemetry registry, and attribution totals exactly.
func TestScanCrashAtEverySavePoint(t *testing.T) {
	a := testAutomaton()
	streams := [][]byte{testInput(6000, 1), testInput(5000, 2), testInput(9000, 3)}
	for _, shape := range [][2]int{{1, 1}, {2, 3}} {
		workers, segments := shape[0], shape[1]
		t.Run(fmt.Sprintf("j%d-seg%d", workers, segments), func(t *testing.T) {
			dir := t.TempDir()
			straight := runScanAttempt(t, a, streams, workers, segments,
				filepath.Join(dir, "ref"), ChunkAlign, nil, nil)
			if straight.err != nil {
				t.Fatalf("straight run: %v", straight.err)
			}
			if straight.saves < 4 {
				t.Fatalf("straight run saved only %d times — test is not exercising save points", straight.saves)
			}
			if len(straight.events) == 0 {
				t.Fatal("straight run reported nothing — test is vacuous")
			}
			refEvents := canonReports(straight.events)

			sawStreamEnd := false
			for n := int64(1); n <= straight.saves; n++ {
				path := filepath.Join(dir, fmt.Sprintf("ck%d", n))
				gov := govWithFaults(t, fmt.Sprintf("crash:ckpt.save:%d", n))
				crashed := runScanAttempt(t, a, streams, workers, segments, path, ChunkAlign, gov, nil)
				if trip := guard.AsTrip(crashed.err); trip == nil || trip.Budget != guard.BudgetCrashed {
					t.Fatalf("crash at save %d: err=%v, want BudgetCrashed", n, crashed.err)
				}
				c, _, err := Load(path)
				if n == 1 {
					// Killed at the very first save: nothing durable yet.
					if err == nil {
						t.Fatalf("crash at save 1 left a loadable checkpoint")
					}
					c = nil
				} else if err != nil {
					t.Fatalf("crash at save %d: Load: %v", n, err)
				}
				if c != nil && c.Cursor.Offset == 0 {
					sawStreamEnd = true
				}

				kept := crashed.events
				if c != nil {
					if int(c.Cursor.Reports) > len(kept) {
						t.Fatalf("crash at save %d: cursor claims %d reports, %d emitted", n, c.Cursor.Reports, len(kept))
					}
					kept = kept[:c.Cursor.Reports]
				} else {
					kept = nil
				}
				resumed := runScanAttempt(t, a, streams, workers, segments, path, ChunkAlign, nil, c)
				if resumed.err != nil {
					t.Fatalf("resume after save %d: %v", n, resumed.err)
				}
				if resumed.res.Stats != straight.res.Stats {
					t.Errorf("crash at save %d: stats %+v, want %+v", n, resumed.res.Stats, straight.res.Stats)
				}
				if got := canonReports(append(kept, resumed.events...)); !reflect.DeepEqual(got, refEvents) {
					t.Errorf("crash at save %d: report stream diverges (%d vs %d events)", n, len(got), len(refEvents))
				}
				if !reflect.DeepEqual(resumed.snap, straight.snap) {
					t.Errorf("crash at save %d: registry diverges:\n got %+v\nwant %+v", n, resumed.snap, straight.snap)
				}
				if !reflect.DeepEqual(resumed.attr, straight.attr) {
					t.Errorf("crash at save %d: attribution diverges:\n got %+v\nwant %+v", n, resumed.attr, straight.attr)
				}
			}
			if !sawStreamEnd {
				t.Error("no crash landed on a stream-end checkpoint — multi-stream gap never exercised")
			}
		})
	}
}

// A budget trip inside a segmented chunk has no consistent save point:
// the master may stand at a segment bound off the interval grid, and the
// stitch never delivered the chunk's reports. The trip's final save must
// leave the last chunk-boundary checkpoint on disk, and resuming from it
// must reproduce the straight run: stats, report stream, stitch, registry
// and attribution.
func TestScanTripMidChunkKeepsChunkBoundary(t *testing.T) {
	b := automata.NewBuilder()
	h := b.AddSTE(charset.Single('a'), automata.StartAllInput)
	tail := b.AddSTE(charset.Single('b'), automata.StartNone)
	b.AddEdge(h, tail)
	b.SetReport(tail, 2)
	speculative := b.MustBuild()

	streams := [][]byte{testInput(6000, 1), testInput(5000, 2), testInput(9000, 3)}
	const workers, segments = 2, 3
	for name, a := range map[string]*automata.Automaton{"cascade": testAutomaton(), "speculative": speculative} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			straight := runScanAttempt(t, a, streams, workers, segments, filepath.Join(dir, "ref"), ChunkAlign, nil, nil)
			if straight.err != nil {
				t.Fatalf("straight run: %v", straight.err)
			}
			// The input budget runs out 2000 bytes into stream 2's second
			// chunk, [4096, 8192), whose three segments are 1365 bytes each.
			budget := int64(6000+5000+ChunkAlign) + 2000
			path := filepath.Join(dir, "ck")
			gov := guard.New(context.Background(), guard.Budget{MaxInputBytes: budget})
			tripped := runScanAttempt(t, a, streams, workers, segments, path, ChunkAlign, gov, nil)
			if trip := guard.AsTrip(tripped.err); trip == nil || trip.Budget != guard.BudgetInputBytes {
				t.Fatalf("err = %v, want an input-bytes trip", tripped.err)
			}
			c, _, err := Load(path)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if c.Cursor.Offset%ChunkAlign != 0 {
				t.Fatalf("checkpoint at stream %d offset %d: off the chunk grid", c.Cursor.Stream, c.Cursor.Offset)
			}
			if name == "cascade" && (c.Cursor.Stream != 2 || c.Cursor.Offset != ChunkAlign) {
				t.Errorf("checkpoint at stream %d offset %d, want the chunk boundary at stream 2 offset %d",
					c.Cursor.Stream, c.Cursor.Offset, ChunkAlign)
			}
			if int(c.Cursor.Reports) > len(tripped.events) {
				t.Fatalf("cursor claims %d reports, %d delivered", c.Cursor.Reports, len(tripped.events))
			}
			kept := tripped.events[:c.Cursor.Reports]
			resumed := runScanAttempt(t, a, streams, workers, segments, path, ChunkAlign, nil, c)
			if resumed.err != nil {
				t.Fatalf("resume: %v", resumed.err)
			}
			if resumed.res.Stats != straight.res.Stats {
				t.Errorf("stats %+v, want %+v", resumed.res.Stats, straight.res.Stats)
			}
			if resumed.res.Stitch != straight.res.Stitch {
				t.Errorf("stitch %+v, want %+v", resumed.res.Stitch, straight.res.Stitch)
			}
			if got, want := canonReports(append(kept, resumed.events...)), canonReports(straight.events); !reflect.DeepEqual(got, want) {
				t.Errorf("report stream diverges (%d vs %d events)", len(got), len(want))
			}
			if !reflect.DeepEqual(resumed.snap, straight.snap) {
				t.Errorf("registry diverges:\n got %+v\nwant %+v", resumed.snap, straight.snap)
			}
			if !reflect.DeepEqual(resumed.attr, straight.attr) {
				t.Errorf("attribution diverges:\n got %+v\nwant %+v", resumed.attr, straight.attr)
			}
		})
	}
}

// A resumed DFA scan restores reports and symbols exactly; restoring
// into an engine whose governor cache budget cannot hold the snapshot's
// frontier degrades that component to NFA stepping (Fallbacks) instead of
// failing — with the report stream unchanged.
func TestDFARestoreCacheBudgetDegradation(t *testing.T) {
	b := automata.NewBuilder()
	h := b.AddSTE(charset.Single('a'), automata.StartAllInput)
	mid := b.AddSTE(charset.Single('b'), automata.StartNone)
	tail := b.AddSTE(charset.Single('c'), automata.StartNone)
	b.AddEdge(h, mid)
	b.AddEdge(mid, tail)
	b.SetReport(tail, 7)
	a := b.MustBuild()
	input := []byte("xxabcxxabxabcab") // cut mid-pattern below
	cut := 9                           // input[:9] ends in "ab" — a non-start frontier

	ref, err := dfa.New(a)
	if err != nil {
		t.Fatal(err)
	}
	var want, got []sim.Report
	ref.OnReport = func(r sim.Report) { want = append(want, r) }
	ref.Run(input)
	if len(want) == 0 {
		t.Fatal("reference run reported nothing — test is vacuous")
	}

	engA, err := dfa.New(a)
	if err != nil {
		t.Fatal(err)
	}
	engA.OnReport = func(r sim.Report) { got = append(got, r) }
	engA.Run(input[:cut])
	snap := engA.CaptureState()
	if len(snap.Frontier) == 0 {
		t.Fatal("snapshot frontier empty — cut point does not exercise the restore path")
	}

	// Round-trip the snapshot through the checkpoint codec.
	st := engA.Stats()
	data, err := (&Checkpoint{
		Meta:   Meta{Command: "test", Engine: "dfa", Interval: ChunkAlign, Workers: 1, Segments: 1},
		Sim:    snap,
		Cursor: Cursor{Offset: snap.Offset, Reports: st.Reports, Sim: &st},
	}).EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}

	// Probe how many cache bytes a fresh engine needs for its start
	// dstates alone; a budget of exactly that lets construction succeed
	// but denies the snapshot frontier's intern, forcing the restore
	// itself to degrade.
	probe, err := dfa.New(a)
	if err != nil {
		t.Fatal(err)
	}
	base := probe.Run(input[:1]).CacheBytes
	if base == 0 {
		t.Fatal("probe interned nothing — budget cannot be positioned")
	}

	engB, err := dfa.New(a)
	if err != nil {
		t.Fatal(err)
	}
	engB.Attach(hooks.Set{Governor: guard.New(context.Background(), guard.Budget{MaxCacheBytes: base})})
	engB.Run(input[:1]) // warm the start dstates up to the budget
	engB.OnReport = engA.OnReport
	if err := engB.RestoreState(dec.Sim); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if engB.CacheStats().Fallbacks == 0 {
		t.Error("restore under exhausted cache budget did not degrade (Fallbacks = 0)")
	}
	engB.Run(input[cut:])

	if len(got) != len(want) {
		t.Fatalf("reports: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Offset != want[i].Offset || got[i].Code != want[i].Code {
			t.Errorf("report %d: got (%d,%d), want (%d,%d)", i, got[i].Offset, got[i].Code, want[i].Offset, want[i].Code)
		}
	}
}

// In-flight counter state — a latched latch and a mid-count rollover —
// survives the capture → encode → decode → restore cycle: the resumed
// engine's remaining reports match an uninterrupted run's exactly.
func TestSimCounterStateRoundTrip(t *testing.T) {
	a := testAutomaton()
	input := []byte("ccxcacbccacbacc") // two 'c's before the cut: latch fires and latches
	cut := 3                           // rollover (target 3) sits at value 2 — mid-count

	var want, got []sim.Report
	ref := sim.New(a)
	ref.OnReport = func(r sim.Report) { want = append(want, r) }
	ref.Run(input)
	if len(want) == 0 {
		t.Fatal("reference run reported nothing — test is vacuous")
	}

	engA := sim.New(a)
	engA.OnReport = func(r sim.Report) { got = append(got, r) }
	engA.Run(input[:cut])
	snap := engA.CaptureState()
	latched, midCount := false, false
	for _, c := range snap.Counters {
		if c.Latched {
			latched = true
		}
		if !c.Latched && c.Value > 0 {
			midCount = true
		}
	}
	if !latched {
		t.Fatal("no latched counter in snapshot — latch path not exercised")
	}
	if !midCount {
		t.Fatal("no mid-count rollover counter in snapshot — value path not exercised")
	}

	data, err := (&Checkpoint{
		Meta:   Meta{Command: "test", Engine: "nfa", Interval: ChunkAlign, Workers: 1, Segments: 1},
		Sim:    snap,
		Cursor: Cursor{Offset: snap.Offset, Reports: engA.Stats().Reports},
	}).EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, dec.Sim) {
		t.Fatalf("snapshot round trip mismatch:\n in: %+v\nout: %+v", snap, dec.Sim)
	}

	engB := sim.New(a)
	engB.OnReport = engA.OnReport
	engB.RestoreState(dec.Sim)
	engB.Run(input[cut:])

	if len(got) != len(want) {
		t.Fatalf("reports: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Offset != want[i].Offset || got[i].Code != want[i].Code {
			t.Errorf("report %d: got (%d,%d), want (%d,%d)", i, got[i].Offset, got[i].Code, want[i].Offset, want[i].Code)
		}
	}
	if engA.Stats().Reports+engB.Stats().Reports != ref.Stats().Reports {
		t.Errorf("stitched report count %d+%d != %d",
			engA.Stats().Reports, engB.Stats().Reports, ref.Stats().Reports)
	}
}

func govWithFaults(t *testing.T, spec string) *guard.Governor {
	t.Helper()
	inj, err := guard.ParseInjector(spec, 1)
	if err != nil {
		t.Fatalf("ParseInjector(%q): %v", spec, err)
	}
	g := guard.New(context.Background(), guard.Budget{})
	g.SetInjector(inj)
	return g
}
