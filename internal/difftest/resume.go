package difftest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"automatazoo/internal/automata"
	"automatazoo/internal/ckpt"
	"automatazoo/internal/guard"
	"automatazoo/internal/scan"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
	"automatazoo/internal/telemetry"
)

// resumeWarmup matches the soak's segment warmup: tiny relative to the
// input so speculation both commits and replays across seeds.
const resumeWarmup = 48

// maxCrashes bounds the kill loop: after this many armed attempts the
// final attempt runs without fault injection, guaranteeing termination
// even if every armed attempt dies before making progress.
const maxCrashes = 8

// ckptAttempt runs one "process lifetime" of a checkpointed scan: a fresh
// engine and a fresh registry (seeded from the checkpoint's embedded
// snapshot on resume), scanning from the checkpoint cursor to either
// completion or a crash-fault abort. It returns the reports emitted by
// THIS attempt in emission order, the cumulative scan result, and the
// final registry snapshot.
func ckptAttempt(a *automata.Automaton, input []byte, workers, segments int, usePrefilter bool,
	path string, interval int64, gov *guard.Governor, start *ckpt.Checkpoint,
) (events []Event, res scan.Result, snap telemetry.Snapshot, err error) {
	engine := "nfa"
	if usePrefilter {
		engine = "prefilter"
	}
	newEngine, err := scan.Factory(engine)
	if err != nil {
		return nil, res, snap, err
	}
	reg := telemetry.NewRegistry()
	res, err = scan.Run(context.Background(), a, [][]byte{input}, scan.Spec{
		Hooks:    segment.Hooks{Registry: reg, Governor: gov, NewEngine: newEngine},
		Workers:  workers,
		Segments: segments,
		Warmup:   resumeWarmup,
		Saver: &ckpt.Saver{Path: path, Interval: interval, Meta: ckpt.Meta{
			Command: "difftest", Engine: engine, Interval: interval, Workers: workers, Segments: segments,
		}},
		Start: start,
		OnReport: func(r sim.Report) {
			events = append(events, Event{Offset: r.Offset, Code: r.Code})
		},
	})
	return events, res, reg.Snapshot(), err
}

// StraightVsResumed is the crash-safety oracle: an uninterrupted
// checkpointed scan versus the same scan repeatedly killed at
// seed-chosen save points (the `crash:ckpt.save` fault fires INSTEAD of
// persisting, modeling kill -9 at the save boundary) and resumed from
// the durable checkpoint each time. The concatenated output — each
// crashed attempt's reports truncated to its durable cursor, per the
// at-least-once/cursor-dedup contract — must equal the straight run's
// canonical report stream; the cumulative sim.Stats and the
// full telemetry-registry snapshot (including ckpt.saves, which counts
// every save point exactly once across all attempts) must also match.
//
// Both runs checkpoint with the same interval so the counter accounting
// is comparable; a crash before the first save restarts from zero, and
// ckpt.Load's generation fallback is on trial whenever a kill lands
// between the rotate and the write.
func StraightVsResumed(a *automata.Automaton, input []byte, workers, segments int, usePrefilter bool, interval int64, seed uint64) *Divergence {
	dir, err := os.MkdirTemp("", "azoo-resume-")
	if err != nil {
		return &Divergence{Pair: PairStraightVsResumed, Offset: -1, Detail: "mkdtemp: " + err.Error()}
	}
	defer os.RemoveAll(dir)

	refEvents, refRes, refSnap, err := ckptAttempt(a, input, workers, segments, usePrefilter,
		filepath.Join(dir, "ref"), interval, nil, nil)
	if err != nil {
		return &Divergence{Pair: PairStraightVsResumed, Offset: -1, Detail: "straight run: " + err.Error()}
	}

	path := filepath.Join(dir, "ck")
	var kept []Event
	var start *ckpt.Checkpoint
	var gotRes scan.Result
	var gotSnap telemetry.Snapshot
	crashes := 0
	for attempt := 0; ; attempt++ {
		var gov *guard.Governor
		if attempt < maxCrashes {
			// A fresh injector per attempt: the fire point (1st..4th save)
			// is drawn from the seed, so kills land at varying depths.
			inj, ierr := guard.ParseInjector("crash:ckpt.save:~4", seed*31+uint64(attempt)+1)
			if ierr != nil {
				return &Divergence{Pair: PairStraightVsResumed, Offset: -1, Detail: "ParseInjector: " + ierr.Error()}
			}
			gov = guard.New(context.Background(), guard.Budget{})
			gov.SetInjector(inj)
		}
		events, res, snap, err := ckptAttempt(a, input, workers, segments, usePrefilter, path, interval, gov, start)
		if err == nil {
			kept = append(kept, events...)
			gotRes, gotSnap = res, snap
			break
		}
		if t := guard.AsTrip(err); t == nil || t.Budget != guard.BudgetCrashed {
			return &Divergence{Pair: PairStraightVsResumed, Offset: -1, Detail: "attempt failed with non-crash error: " + err.Error()}
		}
		crashes++
		c, _, lerr := ckpt.Load(path)
		if lerr != nil {
			// Killed before the first durable save: restart from zero.
			kept, start = nil, nil
			continue
		}
		all := append(kept, events...)
		keep := int(c.Cursor.Reports)
		if keep > len(all) {
			return &Divergence{
				Pair: PairStraightVsResumed, Offset: -1,
				Detail: fmt.Sprintf("durable cursor claims %d reports but only %d were emitted", keep, len(all)),
			}
		}
		kept, start = all[:keep:keep], c
	}

	if gotRes.Stats != refRes.Stats {
		return &Divergence{
			Pair: PairStraightVsResumed, Offset: -1,
			Detail: fmt.Sprintf("stats mismatch after %d crashes: straight %+v, resumed %+v", crashes, refRes.Stats, gotRes.Stats),
		}
	}
	if !reflect.DeepEqual(refSnap, gotSnap) {
		return &Divergence{
			Pair: PairStraightVsResumed, Offset: -1,
			Detail: fmt.Sprintf("registry mismatch after %d crashes: straight %+v, resumed %+v", crashes, refSnap, gotSnap),
		}
	}
	// Canonical (offset, code) comparison — the suite's report-identity
	// bar (RestoreState re-arms the frontier in sorted order, so same-
	// offset emission order is canonical, not insertion-ordered; every
	// output surface is order-insensitive within an offset).
	refC := canon(append([]Event(nil), refEvents...))
	gotC := canon(append([]Event(nil), kept...))
	if d := diffStreams(PairStraightVsResumed, refC, gotC); d != nil {
		d.Detail += fmt.Sprintf(" (after %d crashes)", crashes)
		return d
	}
	return nil
}
