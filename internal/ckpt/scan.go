package ckpt

import (
	"context"
	"errors"

	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/dfa"
	"automatazoo/internal/hooks"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
)

// Engine is the execution contract the checkpointed scan driver needs:
// the segment scanner's contract plus state capture and a mid-stream
// telemetry flush. sim.Engine and prefilter.Engine both satisfy it.
type Engine interface {
	segment.Engine
	CaptureState() *sim.StreamState
	FlushTelemetry()
}

// ScanConfig parameterizes a checkpointed multi-stream scan. The Start*/
// Cum* fields are zero for a fresh run and come from a loaded checkpoint
// on resume (with the engine already restored via RestoreState).
type ScanConfig struct {
	Automaton *automata.Automaton
	// Engine is the scan engine: fresh for a new run, restored to the
	// checkpoint's StreamState for a resume. The driver attaches Hooks to
	// it, plus — per stream — the saver and an attribution ledger.
	Engine  Engine
	Streams [][]byte

	// Resume position: the in-flight stream index and the absolute offset
	// of the next unscanned byte within it (a multiple of ChunkAlign).
	StartStream int
	StartOffset int64
	// Cum / CumStitch are the cumulative statistics and stitch outcomes
	// restored from the checkpoint cursor (zero for a fresh run).
	Cum       sim.Stats
	CumStitch segment.Stitch

	// Saver persists checkpoints; nil scans without checkpointing (the
	// driver then degenerates to the plain scan path).
	Saver *Saver
	// Meta is stored verbatim in every checkpoint.
	Meta Meta

	// Segmentation knobs, matching segment.Options semantics.
	Segments     int
	Workers      int
	Warmup       int
	AutoMinBytes int64

	// Hooks are shared by Engine and the segment scanner (whose
	// speculative engines come from NewEngine).
	segment.Hooks
	// AttrCompOf maps engine-local state IDs to Attribution's global
	// component indices; nil uses the whole-automaton map.
	AttrCompOf []int32
	// OnReport, if non-nil, receives every report (canonically ordered
	// within segmented chunks).
	OnReport func(sim.Report)
}

// ScanResult is the cumulative outcome of a (possibly resumed) scan.
type ScanResult struct {
	Stats  sim.Stats
	Stitch segment.Stitch
}

// errMidChunk marks a SaveFinal attempted while the segment-parallel
// path was inside a chunk: there is no consistent save point, and the
// last completed chunk was already persisted.
var errMidChunk = errors.New("ckpt: engine is mid-chunk; last chunk-boundary checkpoint already persisted")

// Scan runs the checkpointed scan over every remaining stream. Per
// stream it picks the same execution shape the uncheckpointed path
// would — a single governed RunChecked when segmentation resolves to 1
// (saves ride the engine's Checkpointer seam at absolute 4096-aligned
// chunk boundaries), or interval-sized chunks through the segment
// scanner with a save between chunks. Both shapes put every save point
// on the deterministic interval grid, which is what makes a resumed
// run's outputs byte-identical to an uninterrupted one.
//
// On clean completion the checkpoint files are removed — a finished run
// must not be silently replayable.
func Scan(ctx context.Context, cfg ScanConfig) (ScanResult, error) {
	cum := cfg.Cum
	stitch := cfg.CumStitch
	sv := cfg.Saver
	for si := cfg.StartStream; si < len(cfg.Streams); si++ {
		stream := cfg.Streams[si]
		off := int64(0)
		if si == cfg.StartStream {
			off = cfg.StartOffset
		}
		k := segment.Resolve(int64(len(stream)), cfg.Segments, cfg.Workers, cfg.AutoMinBytes)
		var err error
		if k <= 1 {
			err = cfg.scanSeq(si, stream, off, &cum, &stitch)
		} else {
			err = cfg.scanChunked(ctx, si, stream, off, &cum, &stitch)
		}
		if err != nil {
			return ScanResult{Stats: cum, Stitch: stitch}, err
		}
		if si+1 < len(cfg.Streams) && sv != nil {
			// Stream-end checkpoint: a crash in the gap resumes cleanly at
			// the next stream (Offset 0, no engine snapshot to restore).
			next := si + 1
			sv.Capture = func() (*Checkpoint, error) {
				return cfg.checkpoint(next, nil, cum, stitch), nil
			}
			if err := sv.Save("stream-end"); err != nil {
				return ScanResult{Stats: cum, Stitch: stitch}, err
			}
			sv.ResetInterval()
		}
	}
	if sv != nil {
		Remove(sv.Path)
	}
	return ScanResult{Stats: cum, Stitch: stitch}, nil
}

// scanSeq scans one stream through a single governed RunChecked with the
// saver attached at the engine's Checkpointer seam.
func (cfg *ScanConfig) scanSeq(si int, stream []byte, off int64, cum *sim.Stats, stitch *segment.Stitch) error {
	eng := cfg.Engine
	if off == 0 {
		eng.Reset()
		eng.SetOffset(0)
	}
	set := cfg.EngineSet()
	set.Ledger = cfg.Ledger(cfg.AttrCompOf)
	led := set.Ledger
	// cumBase is everything before the engine's per-stream stats counter
	// (re)started: prior streams, plus — on resume — the restored prefix
	// of this one.
	cumBase := *cum
	if cfg.Saver != nil {
		cfg.Saver.Capture = func() (*Checkpoint, error) {
			eng.FlushTelemetry()
			if led != nil {
				led.Commit()
			}
			snap := eng.CaptureState()
			return cfg.checkpoint(si, snap, addStats(cumBase, eng.Stats()), *stitch), nil
		}
		set.Checkpointer = cfg.Saver
	}
	eng.Attach(set)
	if cfg.OnReport != nil {
		eng.SetOnReport(cfg.OnReport)
	}
	st, err := eng.RunChecked(stream[off:])
	// The saver and the ledger belong to this stream only.
	eng.Attach(cfg.EngineSet())
	if cfg.OnReport != nil {
		eng.SetOnReport(nil)
	}
	*cum = addStats(cumBase, st)
	if led != nil {
		led.Commit()
	}
	return err
}

// scanChunked scans one stream in interval-sized chunks through the
// segment-parallel scanner, the caller's warm engine threading through
// as each chunk's master, with a checkpoint save between chunks.
func (cfg *ScanConfig) scanChunked(ctx context.Context, si int, stream []byte, off int64, cum *sim.Stats, stitch *segment.Stitch) error {
	eng := cfg.Engine
	if off == 0 {
		eng.Reset()
		eng.SetOffset(0)
	}
	interval := int64(len(stream))
	if cfg.Saver != nil {
		interval = cfg.Saver.Interval
	}
	mid := false
	if cfg.Saver != nil {
		cfg.Saver.Capture = func() (*Checkpoint, error) {
			if mid {
				return nil, errMidChunk
			}
			return cfg.checkpoint(si, eng.CaptureState(), *cum, *stitch), nil
		}
	}
	for off < int64(len(stream)) {
		end := off + interval
		if end > int64(len(stream)) {
			end = int64(len(stream))
		}
		mid = true
		res, err := segment.Run(ctx, cfg.Automaton, stream[off:end], segment.Options{
			Segments:     cfg.Segments,
			Workers:      cfg.Workers,
			Warmup:       cfg.Warmup,
			AutoMinBytes: cfg.AutoMinBytes,
			OnReport:     cfg.OnReport,
			Hooks:        cfg.Hooks,
			AttrCompOf:   cfg.AttrCompOf,
			Master:       eng,
			BaseOffset:   off,
		})
		*cum = addStats(*cum, res.Stats)
		stitch.Add(res.Stitch)
		mid = false
		if err != nil {
			return err
		}
		off = end
		if off < int64(len(stream)) && cfg.Saver != nil {
			if err := cfg.Saver.Save("chunk"); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkpoint assembles one checkpoint image from the run's current
// state. snap is nil for a stream-end checkpoint (the next stream starts
// fresh).
func (cfg *ScanConfig) checkpoint(stream int, snap *sim.StreamState, cum sim.Stats, stitch segment.Stitch) *Checkpoint {
	cur := Cursor{Stream: stream, Reports: cum.Reports}
	st := cum
	cur.Sim = &st
	if snap != nil {
		cur.Offset = snap.Offset
	}
	if stitch != (segment.Stitch{}) {
		sc := stitch
		cur.Stitch = &sc
	}
	c := &Checkpoint{Meta: cfg.Meta, Sim: snap, Cursor: cur}
	if cfg.Registry != nil {
		s := cfg.Registry.Snapshot()
		c.Metrics = &s
	}
	if cfg.Attribution != nil {
		t := cfg.Attribution.Totals()
		c.Attr = &t
	}
	if cfg.Governor != nil && !cfg.Governor.Budget().Unlimited() {
		b := cfg.Governor.Remaining()
		c.Budget = &b
	}
	return c
}

func addStats(a, b sim.Stats) sim.Stats {
	return sim.Stats{
		Symbols:       a.Symbols + b.Symbols,
		Enabled:       a.Enabled + b.Enabled,
		Active:        a.Active + b.Active,
		CounterPulses: a.CounterPulses + b.CounterPulses,
		Reports:       a.Reports + b.Reports,
	}
}

// DFAScanConfig parameterizes the checkpointed DFA scan: one governed
// engine, streams scanned whole, saves at the Checkpointer seam. Resume
// restores reports and symbols exactly; the transition cache restarts
// cold, so cache statistics (hit rate, construct time) describe the
// resumed process, not the combined run — the one documented difference
// from an uninterrupted DFA scan.
type DFAScanConfig struct {
	Engine      *dfa.Engine
	Streams     [][]byte
	StartStream int
	StartOffset int64
	Cum         dfa.Stats
	Saver       *Saver
	Meta        Meta
	// Set is what the caller attached to Engine; ScanDFA re-attaches it
	// with the saver added around each stream. Its Ledger (may be nil) is
	// committed at every save, its Registry and Governor are snapshotted
	// into every checkpoint.
	hooks.Set
	Attribution *attr.Collector
}

// ScanDFA is Scan for the cached-DFA engine.
func ScanDFA(ctx context.Context, cfg DFAScanConfig) (dfa.Stats, error) {
	_ = ctx // cancellation arrives via the governor, like the plain DFA path
	eng := cfg.Engine
	cum := cfg.Cum
	sv := cfg.Saver
	for si := cfg.StartStream; si < len(cfg.Streams); si++ {
		stream := cfg.Streams[si]
		off := int64(0)
		if si == cfg.StartStream {
			off = cfg.StartOffset
		}
		if off == 0 {
			eng.Reset()
		}
		cumBase := cum
		if sv != nil {
			idx := si
			sv.Capture = func() (*Checkpoint, error) {
				eng.FlushTelemetry()
				if cfg.Ledger != nil {
					cfg.Ledger.Commit()
				}
				snap := eng.CaptureState()
				return cfg.checkpointDFA(idx, snap, addDFAStats(cumBase, eng.Stats())), nil
			}
			set := cfg.Set
			set.Checkpointer = sv
			eng.Attach(set)
		}
		st, err := eng.RunChecked(stream[off:])
		eng.Attach(cfg.Set)
		cum = addDFAStats(cumBase, st)
		if err != nil {
			return cum, err
		}
		if si+1 < len(cfg.Streams) && sv != nil {
			next := si + 1
			sv.Capture = func() (*Checkpoint, error) {
				eng.FlushTelemetry()
				if cfg.Ledger != nil {
					cfg.Ledger.Commit()
				}
				return cfg.checkpointDFA(next, nil, cum), nil
			}
			if err := sv.Save("stream-end"); err != nil {
				return cum, err
			}
			sv.ResetInterval()
		}
	}
	if sv != nil {
		Remove(sv.Path)
	}
	return cum, nil
}

func (cfg *DFAScanConfig) checkpointDFA(stream int, snap *dfa.StreamState, cum dfa.Stats) *Checkpoint {
	cur := Cursor{Stream: stream, Reports: cum.Reports}
	st := cum
	cur.DFA = &st
	if snap != nil {
		cur.Offset = snap.Offset
	}
	c := &Checkpoint{Meta: cfg.Meta, DFA: snap, Cursor: cur}
	if cfg.Registry != nil {
		s := cfg.Registry.Snapshot()
		c.Metrics = &s
	}
	if cfg.Attribution != nil {
		t := cfg.Attribution.Totals()
		c.Attr = &t
	}
	if cfg.Governor != nil && !cfg.Governor.Budget().Unlimited() {
		b := cfg.Governor.Remaining()
		c.Budget = &b
	}
	return c
}

// addDFAStats folds per-stream DFA stats into a cumulative total: flow
// counters add; level quantities (interned states, live fallbacks, cache
// bytes) take the current engine's value.
func addDFAStats(a, b dfa.Stats) dfa.Stats {
	return dfa.Stats{
		Symbols:        a.Symbols + b.Symbols,
		Reports:        a.Reports + b.Reports,
		CacheHits:      a.CacheHits + b.CacheHits,
		CacheMisses:    a.CacheMisses + b.CacheMisses,
		CacheEvictions: a.CacheEvictions + b.CacheEvictions,
		ConstructNanos: a.ConstructNanos + b.ConstructNanos,
		FallbackBytes:  a.FallbackBytes + b.FallbackBytes,
		DFAStates:      b.DFAStates,
		Fallbacks:      b.Fallbacks,
		CacheBytes:     b.CacheBytes,
	}
}
