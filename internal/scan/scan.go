// Package scan is the one driver that runs an engine over a benchmark's
// input streams. `azoo run`, `resume` and `explain`, Table I, the
// stats.Observe* adapters and the crash-recovery oracle all call Run; the
// engine (nfa, dfa or prefilter) is a factory in the Spec, resolved from
// its name by Factory, and every engine is driven the same way.
//
// Run picks one of four layouts from the Spec:
//
//	checkpointed      Saver or Start set       one whole-automaton engine
//	segmented         a stream resolves to     one whole-automaton master,
//	                  more than one segment    segment.Run per stream
//	                  (not a caching engine)
//	component slices  Workers > 1, no Tracer,  one engine per partition slice
//	                  no cache budget
//	whole             otherwise                one whole-automaton engine
//
// The first, second and fourth share one loop (whole): each stream is one
// governed RunChecked, or segment.Run with the engine as master when the
// stream resolves to more than one segment — in checkpoint-interval chunks
// when checkpointing. A caching engine (dfa) never speculates, so a
// segmented scan would cascade on its master; at Workers > 1 it keeps the
// component slices instead. A traced run never slices: a slice engine
// numbers its states locally, and the Tracer contract is automaton state
// IDs, so an unsegmented traced run emits the same events at any Workers.
// Nor does a run under a governor cache budget (guard.Budget.MaxCacheBytes)
// slice: slice engines would race for the one budget, and which component
// is refused first would vary from run to run. Unsliced is Run without the
// slices. Every layout yields the same Result.Stats, report multiset and,
// for dfa, cache line: the engine is deterministic, and a caching engine
// keeps one cache per automaton component whichever layout holds it.
package scan

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"automatazoo/internal/automata"
	"automatazoo/internal/ckpt"
	"automatazoo/internal/dfa"
	"automatazoo/internal/guard"
	"automatazoo/internal/parallel"
	"automatazoo/internal/partition"
	"automatazoo/internal/prefilter"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
	"automatazoo/internal/telemetry"
)

// Every engine Factory builds satisfies the segment and checkpoint
// contracts.
var (
	_ ckpt.Engine = (*sim.Engine)(nil)
	_ ckpt.Engine = (*prefilter.Engine)(nil)
	_ ckpt.Engine = (*dfa.Engine)(nil)
)

// Factory resolves an engine name to its constructor: "nfa" (the
// VASim-style interpreter), "dfa" (the Hyperscan-style lazy DFA, which
// rejects counter automata) or "prefilter" (the two-stage literal
// prefilter). Any other name is an error.
func Factory(name string) (func(*automata.Automaton) (segment.Engine, error), error) {
	switch name {
	case "nfa":
		return func(a *automata.Automaton) (segment.Engine, error) { return sim.New(a), nil }, nil
	case "dfa":
		return func(a *automata.Automaton) (segment.Engine, error) { return dfa.New(a) }, nil
	case "prefilter":
		return func(a *automata.Automaton) (segment.Engine, error) { return prefilter.New(a) }, nil
	}
	return nil, fmt.Errorf("unknown engine %q", name)
}

// Spec says how Run scans.
type Spec struct {
	// Hooks are attached to every engine the run builds, and NewEngine
	// builds them (see Factory; nil is nfa).
	segment.Hooks
	// Workers bounds the run's goroutines (<= 0: one per CPU); Segments
	// asks for segment-parallel pieces per stream (0 auto, 1 off, N
	// exactly N). Both resolve through segment.Resolve.
	Workers, Segments int
	// Warmup is the speculative pre-scan window (segment.Options.Warmup).
	Warmup int
	// Saver, when set, checkpoints the run: Run installs its Capture and
	// hook Set, saves a last checkpoint when a governor trip stops the
	// run (except inside a segmented chunk, where the last chunk-boundary
	// save stands), and removes the files when the run completes.
	Saver *ckpt.Saver
	// Start, when set, resumes the run from a loaded checkpoint: its
	// cursor, cumulative statistics, engine state, registry snapshot
	// (merged into Registry) and attribution totals.
	Start *ckpt.Checkpoint
	// OnReport, if non-nil, receives every report, stream by stream; ties
	// within an offset arrive in canonical order when a stream is
	// segmented or sliced.
	OnReport func(sim.Report)
}

// Result is what Run measured.
type Result struct {
	// Stats are the exact stream statistics, whatever the layout: Symbols
	// counts each stream byte once, and a resumed run includes the
	// checkpoint's. After a trip they cover the work done so far (sliced
	// runs: the slices' mean progress).
	Stats sim.Stats
	// Stitch sums the segment-parallel stitch accounting; zero when no
	// stream was segmented.
	Stitch segment.Stitch
	// Cache is the transition-cache profile summed over every engine the
	// run built; nil for engines without a cache. Its Symbols and Reports
	// are zero (Stats has them). A resumed run's cache started cold, so
	// its Cache describes the resumed process only.
	Cache *dfa.Stats
}

// Format renders `azoo run`'s output for a scan of bench (states states):
// one line for the exact engines; the symbols, reports and DFA-state line
// plus the transition-cache line for an engine with a cache.
func (r Result) Format(bench string, states int) string {
	st, c := r.Stats, r.Cache
	if c == nil {
		return fmt.Sprintf("%s: %d states, %d symbols, %d reports (%.6f/sym), active set %.2f\n",
			bench, states, st.Symbols, st.Reports, st.ReportRate(), st.ActiveAvg())
	}
	return fmt.Sprintf("%s: %d states, %d symbols, %d reports, %d DFA states, %d fallbacks\n"+
		"transition cache: %.2f%% hit rate, %.4f evictions/lookup\n",
		bench, states, st.Symbols, st.Reports, c.DFAStates, c.Fallbacks, c.HitRate()*100, c.EvictionRate())
}

// cacher is an engine with a transition cache (dfa).
type cacher interface{ CacheStats() dfa.Stats }

// Run scans streams (each an independent stream: engine state restarts
// between them) on automaton a as sp says. On error the Result covers the
// work done before it.
func Run(ctx context.Context, a *automata.Automaton, streams [][]byte, sp Spec) (Result, error) {
	return sp.run(ctx, a, streams, true)
}

// Unsliced is Run without the component-slice layout: Workers only sizes
// the segment-parallel pool, and a stream that resolves to one segment
// runs on the whole-automaton engine. Table I scans this way — its
// workers fan out over kernels, not over one kernel's components.
func Unsliced(ctx context.Context, a *automata.Automaton, streams [][]byte, sp Spec) (Result, error) {
	return sp.run(ctx, a, streams, false)
}

func (sp *Spec) run(ctx context.Context, a *automata.Automaton, streams [][]byte, sliceable bool) (Result, error) {
	var res Result
	if c := sp.Start; c != nil {
		if err := sp.resume(c, streams, &res); err != nil {
			return res, err
		}
	}
	// Every engine comes through this factory, so the cache profile can
	// be summed over all of them.
	var mu sync.Mutex
	var cachers []cacher
	build := sp.Hooks.New
	sp.NewEngine = func(a *automata.Automaton) (segment.Engine, error) {
		e, err := build(a)
		if c, ok := e.(cacher); ok && err == nil {
			mu.Lock()
			cachers = append(cachers, c)
			mu.Unlock()
		}
		return e, err
	}
	// Slices at Workers > 1 when nothing is checkpointed or traced (slice
	// engines number states locally, and a Tracer sees automaton IDs) and
	// no cache budget is shared, unless a stream resolves to more than one
	// segment and the engine is not a caching one: those are the segmented
	// layout's master.
	var e segment.Engine
	var err error
	sliced := sliceable && sp.Saver == nil && sp.Start == nil && sp.Tracer == nil &&
		sp.Governor.Budget().MaxCacheBytes == 0 && parallel.Workers(sp.Workers) > 1
	if sliced && segmented(streams, sp.Segments, sp.Workers) {
		if e, err = sp.New(a); err != nil {
			return res, err
		}
		if _, sliced = e.(cacher); sliced {
			e, cachers = nil, nil // the slices build their own
		}
	}
	if sliced {
		err = sp.slices(ctx, a, streams, &res)
	} else {
		// Inline, under the pool's panic isolation, as slices and
		// segments run: a panic fails the run with a *parallel.PanicError.
		err = parallel.ForEach(context.Background(), 1, 1, func(int) error {
			return sp.whole(ctx, a, e, streams, &res)
		})
	}
	for _, c := range cachers {
		if res.Cache == nil {
			res.Cache = &dfa.Stats{}
		}
		*res.Cache = res.Cache.Add(c.CacheStats())
	}
	if c := res.Cache; c != nil {
		c.Symbols, c.Reports = 0, 0
		sp.PublishCache(*c)
	}
	return res, err
}

// segmented reports whether any stream resolves to more than one segment
// (segment.Resolve).
func segmented(streams [][]byte, segments, workers int) bool {
	for _, s := range streams {
		if segment.Resolve(int64(len(s)), segments, workers) > 1 {
			return true
		}
	}
	return false
}

// resume checks the start cursor against streams and restores the
// checkpoint's cumulative statistics and observability.
func (sp *Spec) resume(c *ckpt.Checkpoint, streams [][]byte, res *Result) error {
	cur := c.Cursor
	if cur.Stream < 0 || cur.Stream >= len(streams) {
		return fmt.Errorf("checkpoint cursor: stream %d of %d", cur.Stream, len(streams))
	}
	if n := int64(len(streams[cur.Stream])); cur.Offset < 0 || cur.Offset > n {
		return fmt.Errorf("checkpoint cursor: offset %d beyond stream of %d bytes", cur.Offset, n)
	}
	if cur.Sim != nil {
		res.Stats = *cur.Sim
	}
	if cur.Stitch != nil {
		res.Stitch = *cur.Stitch
	}
	if sp.Registry != nil && c.Metrics != nil {
		sp.Registry.Merge(*c.Metrics)
	}
	if sp.Attribution != nil && c.Attr != nil {
		return sp.Attribution.RestoreTotals(*c.Attr)
	}
	return nil
}

// slices scans every stream once per component slice of a
// partition.ForWorkers plan, one engine per slice.
func (sp *Spec) slices(ctx context.Context, a *automata.Automaton, streams [][]byte, res *Result) error {
	plan := partition.ForWorkers(a, sp.Workers)
	total := remainingBytes(streams, 0, 0)
	// Every slice engine heartbeats its own pass over the streams.
	sp.Progress.AddTotal(int64(plan.Passes()) * total)
	r, err := plan.Run(ctx, streams, partition.RunOptions{Workers: sp.Workers, OnReport: sp.OnReport, Hooks: sp.Hooks})
	res.Stats = sim.Stats{Symbols: total, Enabled: r.Enabled, Active: r.Active, CounterPulses: r.CounterPulses, Reports: r.Reports}
	if err != nil {
		res.Stats.Symbols = r.Symbols / int64(max(r.Passes, 1))
	}
	return err
}

// whole scans the streams from the start cursor on one whole-automaton
// engine (e, or a new one when nil): each stream in one RunChecked, or
// through segment.Run with the engine as master when it resolves to more
// than one segment. Under a Saver those streams run in interval-sized
// chunks with a save between chunks, the others save at the engine's
// Checkpointer seam, and every stream but the last ends with a save. All
// save points lie on the interval grid, which is what makes a resumed
// run's output identical to an uninterrupted one.
func (sp *Spec) whole(ctx context.Context, a *automata.Automaton, e segment.Engine, streams [][]byte, res *Result) (err error) {
	if e == nil {
		if e, err = sp.New(a); err != nil {
			return err
		}
	}
	first, off := 0, int64(0)
	if c := sp.Start; c != nil {
		first, off = c.Cursor.Stream, c.Cursor.Offset
		if c.Sim != nil && off > 0 {
			if err := e.RestoreState(c.Sim); err != nil {
				return err
			}
		}
	}
	sp.Progress.AddTotal(remainingBytes(streams, first, off))
	set := sp.EngineSet(e)
	set.Ledger = sp.Ledger(nil)
	sv := sp.Saver
	var eng ckpt.Engine
	if sv != nil {
		var ok bool
		if eng, ok = e.(ckpt.Engine); !ok {
			return fmt.Errorf("engine %T cannot checkpoint", e)
		}
		sv.Hooks = sp.Hooks
		set.Checkpointer = sv
	}
	inflight := false // a stream's RunChecked has not returned
	// save builds a checkpoint at the engine's position in stream si, or
	// at the start of stream si when snap is nil.
	save := func(si int, snap *sim.StreamState, st sim.Stats) (*ckpt.Checkpoint, error) {
		eng.Flush()
		if set.Ledger != nil {
			set.Ledger.Commit()
		}
		return sp.checkpoint(si, snap, st, res.Stitch, e, inflight), nil
	}
	// A panic unwinds through the clean-up below with err still nil; only
	// a normal return may remove the checkpoint.
	completed := false
	defer func() {
		if set.Ledger != nil {
			set.Ledger.Commit()
		}
		switch trip := guard.AsTrip(err); {
		case sv == nil:
		case completed:
			ckpt.Remove(sv.Path)
		case trip != nil && trip.Budget == guard.BudgetSignaled:
			sv.SaveFinal("signal")
		case trip != nil:
			sv.SaveFinal("trip")
		}
	}()
	for si := first; si < len(streams); si++ {
		stream := streams[si]
		if si != first {
			off = 0
		}
		if off == 0 {
			e.Reset()
		}
		if segment.Resolve(int64(len(stream)), sp.Segments, sp.Workers) > 1 {
			err := sp.chunked(ctx, a, e, stream, off, res, func() (*ckpt.Checkpoint, error) {
				return save(si, eng.CaptureState(), res.Stats)
			})
			if err != nil {
				return err
			}
		} else {
			base := res.Stats
			if sv != nil {
				sv.Capture = func() (*ckpt.Checkpoint, error) {
					return save(si, eng.CaptureState(), base.Add(e.Stats()))
				}
			}
			e.Attach(set)
			e.SetOnReport(sp.OnReport)
			inflight = true
			st, err := e.RunChecked(stream[off:])
			inflight = false
			sp.Publish(e)
			res.Stats = base.Add(st)
			if err != nil {
				return err
			}
		}
		if sv != nil && si+1 < len(streams) {
			// A crash in the gap resumes cleanly at the next stream.
			sv.Capture = func() (*ckpt.Checkpoint, error) { return save(si+1, nil, res.Stats) }
			if err := sv.Save("stream-end"); err != nil {
				return err
			}
			sv.ResetInterval()
		}
	}
	completed = true
	return nil
}

// errMidChunk refuses a save while a chunk is in flight or was cut short:
// the master may stand at a segment bound off the interval grid, and the
// stitch has not delivered the chunk's reports, so the last chunk-boundary
// checkpoint is the one to keep.
var errMidChunk = errors.New("scan: mid-chunk; the last chunk-boundary checkpoint stands")

// chunked scans stream from off through segment.Run with e as the
// master: in one piece, or under a Saver in interval-sized chunks with a
// save (through capture) between them.
func (sp *Spec) chunked(ctx context.Context, a *automata.Automaton, e segment.Engine, stream []byte, off int64, res *Result, capture func() (*ckpt.Checkpoint, error)) error {
	interval := int64(len(stream))
	mid := false
	if sv := sp.Saver; sv != nil {
		interval = sv.Interval
		sv.Capture = func() (*ckpt.Checkpoint, error) {
			if mid {
				return nil, errMidChunk
			}
			return capture()
		}
	}
	for off < int64(len(stream)) {
		end := min(off+interval, int64(len(stream)))
		mid = true
		r, err := segment.Run(ctx, a, stream[off:end], segment.Options{
			Segments: sp.Segments, Workers: sp.Workers, Warmup: sp.Warmup,
			OnReport: sp.OnReport, Hooks: sp.Hooks, Master: e, BaseOffset: off,
		})
		res.Stats = res.Stats.Add(r.Stats)
		res.Stitch.Add(r.Stitch)
		if err != nil {
			return err // still mid-chunk: a trip's SaveFinal writes nothing
		}
		mid = false
		if off = end; off < int64(len(stream)) && sp.Saver != nil {
			if err := sp.Saver.Save("chunk"); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkpoint assembles one checkpoint image from the run's current state,
// on engine e; inflight says e's stream work is not yet published.
func (sp *Spec) checkpoint(stream int, snap *sim.StreamState, st sim.Stats, stitch segment.Stitch, e segment.Engine, inflight bool) *ckpt.Checkpoint {
	cur := ckpt.Cursor{Stream: stream, Reports: st.Reports, Sim: &st}
	if snap != nil {
		cur.Offset = snap.Offset
	}
	if stitch != (segment.Stitch{}) {
		cur.Stitch = &stitch
	}
	c := &ckpt.Checkpoint{Meta: sp.Saver.Meta, Sim: snap, Cursor: cur}
	if sp.Registry != nil {
		s := sp.metrics(e, inflight)
		c.Metrics = &s
	}
	if sp.Attribution != nil {
		t := sp.Attribution.Totals()
		c.Attr = &t
	}
	if g := sp.Governor; g != nil && !g.Budget().Unlimited() {
		b := g.Remaining()
		c.Budget = &b
	}
	return c
}

// metrics is the registry snapshot a checkpoint holds: a copy with what e
// has counted but not yet published folded in — its in-flight stream's
// work, and a caching engine's cache profile, published at run end.
func (sp *Spec) metrics(e segment.Engine, inflight bool) telemetry.Snapshot {
	h := sp.Hooks
	h.Registry = telemetry.NewRegistry()
	h.Registry.Merge(sp.Registry.Snapshot())
	if inflight {
		h.Publish(e)
	}
	if c, ok := e.(cacher); ok {
		h.PublishCache(c.CacheStats())
	}
	return h.Registry.Snapshot()
}

// remainingBytes is what a scan starting at (stream, offset) has to read:
// the tail of that stream plus every stream after it.
func remainingBytes(streams [][]byte, stream int, offset int64) int64 {
	total := -offset
	for _, s := range streams[stream:] {
		total += int64(len(s))
	}
	return total
}
