package difftest

import (
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"automatazoo/internal/automata"
	"automatazoo/internal/ckpt"
	"automatazoo/internal/guard"
	"automatazoo/internal/scan"
	"automatazoo/internal/segment"
	"automatazoo/internal/telemetry"
)

// maxCrashes bounds the kill loop: the attempt after this many armed ones
// runs without fault injection, so the loop ends even without progress.
const maxCrashes = 8

// crashResume is the crash-resume cell: the cell's uninterrupted
// checkpointed scan, held to the reference cell, versus the same scan
// repeatedly killed at seed-chosen save points (the `crash:ckpt.save`
// fault fires INSTEAD of persisting, modeling kill -9) and resumed from
// the durable checkpoint. The concatenated output — each crashed attempt's
// reports truncated to its durable cursor, the at-least-once cursor-dedup
// contract — must equal the straight run's reports, sim.Stats and registry
// snapshot (ckpt.saves counts every save point once across attempts),
// except dfa.*: a resumed dfa engine's cache restarts cold. A crash before
// the first save restarts from zero; ckpt.Load's generation fallback is on
// trial whenever a kill lands between the rotate and the write.
func (c cell) crashResume(a *automata.Automaton, input []byte, segments int, interval int64, seed uint64) verdict {
	v := verdict{cell: c.name + "/crash-resume"}
	fail := func(format string, args ...any) verdict {
		v.div = &Divergence{Cell: v.cell, Offset: -1, Detail: fmt.Sprintf(format, args...)}
		return v
	}
	dir, err := os.MkdirTemp("", "azoo-resume-")
	if err != nil {
		return fail("mkdtemp: %v", err)
	}
	defer os.RemoveAll(dir)
	// attempt is one process lifetime: a fresh engine and registry, from
	// the checkpoint cursor to completion or a crash-fault abort.
	attempt := func(path string, gov *guard.Governor, start *ckpt.Checkpoint) (outcome, telemetry.Snapshot, error) {
		reg := telemetry.NewRegistry()
		o, err := c.run(a, input, segments, scan.Spec{
			Hooks: segment.Hooks{Registry: reg, Governor: gov},
			Saver: &ckpt.Saver{Path: path, Interval: interval, Meta: ckpt.Meta{
				Command: "difftest", Engine: c.name, Interval: interval, Workers: c.workers, Segments: segments,
			}},
			Start: start,
		})
		return o, reg.Snapshot(), err
	}

	ref, err := reference.run(a, input, 1, scan.Spec{})
	if err != nil {
		return fail("reference: %v", err)
	}
	canon(ref.events)
	v.stat = CellStat{Runs: 1, Reports: int64(len(ref.events))}
	straight, want, err := attempt(filepath.Join(dir, "ref"), nil, nil)
	if err != nil {
		return fail("straight run: %v", err)
	}
	canon(straight.events)
	if v.div = compare(v.cell, c.exact, ref, straight); v.div != nil {
		v.div.Detail += " (straight checkpointed run)"
		return v
	}

	path := filepath.Join(dir, "ck")
	var kept []Event
	var start *ckpt.Checkpoint
	var got outcome
	var snap telemetry.Snapshot
	for n := 0; ; n++ {
		var gov *guard.Governor
		if n < maxCrashes {
			// A fresh injector per attempt: the fire point (1st..4th save)
			// is drawn from the seed, so kills land at varying depths.
			inj, err := guard.ParseInjector("crash:ckpt.save:~4", seed*31+uint64(n)+1)
			if err != nil {
				return fail("ParseInjector: %v", err)
			}
			gov = guard.New(context.Background(), guard.Budget{})
			gov.SetInjector(inj)
		}
		if got, snap, err = attempt(path, gov, start); err == nil {
			got.events = append(kept, got.events...)
			break
		}
		if t := guard.AsTrip(err); t == nil || t.Budget != guard.BudgetCrashed {
			return fail("attempt failed with non-crash error: %v", err)
		}
		v.stat.Crashes++
		ck, _, err := ckpt.Load(path)
		if err != nil {
			// Killed before the first durable save: restart from zero.
			kept, start = nil, nil
			continue
		}
		all := append(kept, got.events...)
		keep := int(ck.Cursor.Reports)
		if keep > len(all) {
			return fail("durable cursor claims %d reports but only %d were emitted", keep, len(all))
		}
		kept, start = all[:keep:keep], ck
	}

	if c.name == "dfa" {
		want, snap = withoutDFA(want), withoutDFA(snap)
	}
	if !reflect.DeepEqual(want, snap) {
		return fail("registry mismatch after %d crashes: straight %+v, resumed %+v", v.stat.Crashes, want, snap)
	}
	// Canonical, not emission, order: RestoreState re-arms the frontier in
	// sorted order, and every output surface is order-insensitive within
	// an offset.
	canon(got.events)
	if v.div = compare(v.cell, true, straight, got); v.div != nil {
		v.div.Detail += fmt.Sprintf(" (after %d crashes)", v.stat.Crashes)
	}
	return v
}

// withoutDFA drops the dfa.* metrics, which describe the transition
// cache of the process that produced the snapshot.
func withoutDFA(s telemetry.Snapshot) telemetry.Snapshot {
	dfaMetric := func(name string, _ int64) bool { return strings.HasPrefix(name, "dfa.") }
	maps.DeleteFunc(s.Counters, dfaMetric)
	maps.DeleteFunc(s.Gauges, dfaMetric)
	maps.DeleteFunc(s.Histograms, func(name string, _ telemetry.HistogramSnapshot) bool {
		return strings.HasPrefix(name, "dfa.")
	})
	return s
}
