package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"

	"automatazoo/internal/automata"
	"automatazoo/internal/ckpt"
	"automatazoo/internal/dfa"
	"automatazoo/internal/guard"
	"automatazoo/internal/segment"
	"automatazoo/internal/stats"
)

// saveFinalOnTrip persists a last checkpoint when a scan stopped on a
// governor trip (budget, signal, injected fault): the on-disk state then
// resumes from the drain point instead of the last periodic save.
func saveFinalOnTrip(sv *ckpt.Saver, err error) {
	trip := guard.AsTrip(err)
	if trip == nil || sv == nil {
		return
	}
	reason := "trip"
	if trip.Budget == guard.BudgetSignaled {
		reason = "signal"
	}
	sv.SaveFinal(reason)
}

// remainingBytes is what a scan resuming at (startStream, startOffset)
// still has to read: the tail of the in-flight stream plus every stream
// after it. It is the progress total of a resumed run — streams finished
// before the checkpoint never heartbeat again, so crediting them would
// leave the ETA short of ever converging.
func remainingBytes(streams [][]byte, startStream int, startOffset int64) int64 {
	total := -startOffset
	for _, s := range streams[startStream:] {
		total += int64(len(s))
	}
	return total
}

// runCheckpointedScan is the nfa/prefilter scan path under -checkpoint:
// one whole-automaton engine driven by ckpt.Scan, with h attached and the
// saver riding the engine's Checkpointer seam (or the between-chunks
// saves of the segment-parallel shape meta.Workers/Segments resolve to).
func runCheckpointedScan(sv *ckpt.Saver, meta ckpt.Meta, a *automata.Automaton, segs [][]byte, h stats.Hooks, start *ckpt.Checkpoint) (stats.Dynamic, segment.Stitch, error) {
	se, err := h.New(a)
	if err != nil {
		return stats.Dynamic{}, segment.Stitch{}, err
	}
	eng, ok := se.(ckpt.Engine)
	if !ok {
		return stats.Dynamic{}, segment.Stitch{}, fmt.Errorf("engine %T cannot checkpoint", se)
	}
	h.Spans = nil // as in scanNFA: the command times the scan itself
	cfg := ckpt.ScanConfig{
		Automaton: a,
		Engine:    eng,
		Streams:   segs,
		Saver:     sv,
		Meta:      meta,
		Segments:  meta.Segments,
		Workers:   meta.Workers,
		Hooks:     h,
	}
	if start != nil {
		cfg.StartStream = start.Cursor.Stream
		cfg.StartOffset = start.Cursor.Offset
		if start.Cursor.Sim != nil {
			cfg.Cum = *start.Cursor.Sim
		}
		if start.Cursor.Stitch != nil {
			cfg.CumStitch = *start.Cursor.Stitch
		}
		if start.Sim != nil && start.Cursor.Offset > 0 {
			eng.RestoreState(start.Sim)
		}
	}
	h.Progress.AddTotal(remainingBytes(segs, cfg.StartStream, cfg.StartOffset))
	res, err := ckpt.Scan(context.Background(), cfg)
	saveFinalOnTrip(sv, err)
	st := res.Stats
	return stats.DynamicFrom(st.Symbols, st.Active, st.Enabled, st.Reports), res.Stitch, err
}

// runCheckpointedDFA is the dfa scan path under -checkpoint (requires
// -j 1; the checkpoint holds one engine's frontier). Reports and symbols
// resume exactly; the transition cache restarts cold, so printed cache
// statistics describe the resumed process (see ARCHITECTURE.md).
func runCheckpointedDFA(sv *ckpt.Saver, meta ckpt.Meta, a *automata.Automaton, segs [][]byte, h stats.Hooks, start *ckpt.Checkpoint) (symbols, reports int64, st dfa.Stats, err error) {
	e, err := dfa.New(a)
	if err != nil {
		return 0, 0, dfa.Stats{}, err
	}
	set := engineSet(h, nil)
	e.Attach(set)
	if set.Ledger != nil {
		defer set.Ledger.Commit()
	}
	cfg := ckpt.DFAScanConfig{
		Engine:      e,
		Streams:     segs,
		Saver:       sv,
		Meta:        meta,
		Set:         set,
		Attribution: h.Attribution,
	}
	if start != nil {
		cfg.StartStream = start.Cursor.Stream
		cfg.StartOffset = start.Cursor.Offset
		if start.Cursor.DFA != nil {
			cfg.Cum = *start.Cursor.DFA
		}
		if start.DFA != nil && start.Cursor.Offset > 0 {
			if rerr := e.RestoreState(start.DFA); rerr != nil {
				return 0, 0, dfa.Stats{}, rerr
			}
		}
	}
	h.Progress.AddTotal(remainingBytes(segs, cfg.StartStream, cfg.StartOffset))
	cum, err := ckpt.ScanDFA(context.Background(), cfg)
	saveFinalOnTrip(sv, err)
	return cum.Symbols, cum.Reports, cum, err
}

// printRunNFA writes run's stdout line for the nfa/prefilter engines
// (TestRunOutputByteIdenticalAcrossWorkers at the repo root mirrors it).
func printRunNFA(name string, states int, dyn stats.Dynamic) {
	fmt.Printf("%s: %d states, %d symbols, %d reports (%.6f/sym), active set %.2f\n",
		name, states, dyn.Symbols, dyn.Reports, dyn.ReportRate, dyn.ActiveSet)
}

// printRunDFA writes run's stdout lines for the dfa engine.
func printRunDFA(name string, states int, symbols, reports int64, st dfa.Stats) {
	fmt.Printf("%s: %d states, %d symbols, %d reports, %d DFA states, %d fallbacks\n",
		name, states, symbols, reports, st.DFAStates, st.Fallbacks)
	fmt.Printf("transition cache: %.2f%% hit rate, %.4f evictions/lookup\n",
		st.HitRate()*100, st.EvictionRate())
}

// cmdResume restores an interrupted `azoo run -checkpoint` from its
// durable checkpoint and scans the remainder through run's own body
// (runScan). The benchmark, engine, and scan shape are rebuilt from the
// checkpoint's metadata; only telemetry and governor flags are accepted
// here (artifact paths belong to this invocation, not the original's).
// With the crash landing on the checkpoint grid (a kill at a save point),
// stdout, -report manifests, and attribution output are byte-identical to
// an uninterrupted run for the nfa and prefilter engines; the dfa engine
// resumes its reports and symbols exactly but re-warms its transition
// cache from cold.
func cmdResume(args []string) error {
	fs := flag.NewFlagSet("resume", flag.ExitOnError)
	tf := telemetryFlags(fs)
	gf := governorFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return usageErrorf("usage: azoo resume [flags] <checkpoint-file>")
	}
	path := fs.Arg(0)
	c, src, err := ckpt.Load(path)
	if err != nil {
		return err
	}
	if src != path {
		fmt.Fprintf(os.Stderr, "azoo: checkpoint %s unreadable; resuming from previous generation %s\n", path, src)
	}
	m := c.Meta
	sp := scanSpec{meta: m, ckptPath: path, start: c}
	// A bad name here is a bad checkpoint, not a bad command line: %v drops
	// the usage classification.
	if sp.bench, err = resolveBenchmark(m.Flags["bench"]); err != nil {
		return fmt.Errorf("checkpoint benchmark: %v", err)
	}
	if sp.cfg.Scale, err = strconv.ParseFloat(m.Flags["scale"], 64); err != nil {
		return fmt.Errorf("checkpoint scale: %w", err)
	}
	if sp.cfg.InputBytes, err = strconv.Atoi(m.Flags["input"]); err != nil {
		return fmt.Errorf("checkpoint input: %w", err)
	}
	if sp.cfg.Seed, err = strconv.ParseUint(m.Flags["seed"], 0, 64); err != nil {
		return fmt.Errorf("checkpoint seed: %w", err)
	}
	switch m.Engine {
	case "nfa", "prefilter", "dfa":
	default:
		return fmt.Errorf("checkpoint engine %q unknown to this build", m.Engine)
	}
	sess, err := openSession(tf, gf)
	if err != nil {
		return err
	}
	// No explicit budgets on the resume command line: the original run's
	// unconsumed budget remainder (persisted at the save) carries over.
	if sess.Governor == nil && c.Budget != nil {
		sess.Governor = guard.New(context.Background(), *c.Budget)
	}
	return runScan(sess, sp)
}
