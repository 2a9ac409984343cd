// Package stats computes the per-benchmark statistics reported in the
// paper's Table I: static graph structure (states, edges, subgraphs,
// subgraph-size distribution), the prefix-merged "compressed" state count,
// and the dynamic active set measured by simulating the benchmark on its
// standard input.
//
// Simulation comes in three execution shapes with identical results:
// ObserveSegmentsHooked runs the whole automaton on one engine,
// ObserveSegmentsParallelHooked partitions it across a worker pool
// (internal/parallel via internal/partition) — components are
// independent, so the summed activation, frontier, and report counts are
// exactly those of the single-engine run — and ObserveStreams
// additionally splits each stream into segment-parallel pieces
// (internal/segment). The returned Dynamic is equal field-for-field.
package stats

import (
	"context"
	"fmt"
	"math"

	"automatazoo/internal/automata"
	"automatazoo/internal/partition"
	"automatazoo/internal/segment"
	"automatazoo/internal/telemetry"
	"automatazoo/internal/transform"
)

// Static describes an automaton's graph structure (the static columns of
// Table I).
type Static struct {
	States       int
	Edges        int
	EdgesPerNode float64
	Subgraphs    int
	AvgSize      float64
	StdDevSize   float64
	Counters     int
	StartStates  int
	ReportStates int
}

// Compute returns the static statistics of a.
func Compute(a *automata.Automaton) Static {
	sizes, _ := a.Components()
	s := Static{
		States:       a.NumStates(),
		Edges:        a.NumEdges(),
		Subgraphs:    len(sizes),
		Counters:     a.NumCounters(),
		StartStates:  len(a.Starts()),
		ReportStates: len(a.Reports()),
	}
	if s.States > 0 {
		s.EdgesPerNode = float64(s.Edges) / float64(s.States)
	}
	if len(sizes) > 0 {
		var sum float64
		for _, sz := range sizes {
			sum += float64(sz)
		}
		s.AvgSize = sum / float64(len(sizes))
		var varSum float64
		for _, sz := range sizes {
			d := float64(sz) - s.AvgSize
			varSum += d * d
		}
		s.StdDevSize = math.Sqrt(varSum / float64(len(sizes)))
	}
	return s
}

// Compression reports prefix-merge results: the compressed state count and
// the fraction of states removed (Table I's "Compr. factor": 0.20x means
// 20% of states were removed).
type Compression struct {
	CompressedStates int
	Factor           float64
}

// Compress runs VASim's standard prefix-merge optimization and reports the
// compression achieved.
func Compress(a *automata.Automaton) Compression {
	m, removed := transform.PrefixMerge(a)
	c := Compression{CompressedStates: m.NumStates()}
	if a.NumStates() > 0 {
		c.Factor = float64(removed) / float64(a.NumStates())
	}
	return c
}

// Dynamic describes the simulation-derived columns of Table I.
type Dynamic struct {
	Symbols    int64
	ActiveSet  float64 // mean matching states per symbol (paper's column)
	EnabledSet float64 // mean enabled frontier per symbol
	Reports    int64
	ReportRate float64
}

// Simulate runs a on input with a fresh engine and returns the dynamic
// profile.
func Simulate(a *automata.Automaton, input []byte) Dynamic {
	return SimulateSegments(a, [][]byte{input})
}

// SimulateSegments runs each segment as an independent stream (the engine
// is reset between segments, as in per-classification workloads) and
// aggregates the dynamic profile across all of them.
func SimulateSegments(a *automata.Automaton, segments [][]byte) Dynamic {
	d, _ := ObserveSegmentsHooked(a, segments, Hooks{})
	return d
}

// Hooks is the driver-level hook bundle (segment.Hooks) every observed
// simulation carries. All fields are optional; the zero value is a bare
// run.
type Hooks = segment.Hooks

// streamBytes sums the stream lengths (the progress total of one pass).
func streamBytes(streams [][]byte) int64 {
	var total int64
	for _, s := range streams {
		total += int64(len(s))
	}
	return total
}

// ObserveSegmentsHooked runs each segment as an independent stream on one
// whole-automaton engine with h attached: the engine publishes into
// h.Registry (one is created when nil — cross-segment aggregation always
// flows through the registry rather than hand-rolled sums), runs via its
// checked path so budgets, cancellation and injected faults stop the
// simulation mid-stream, heartbeats progress and records flight-recorder
// events at its chunk boundaries. The Dynamic result is derived from the
// registry's sim.* counters; the registry may be shared across calls (the
// deltas this call contributed are what's reported). On a trip the
// Dynamic derived from the work completed so far is returned with the
// error.
func ObserveSegmentsHooked(a *automata.Automaton, segments [][]byte, h Hooks) (Dynamic, error) {
	if h.Registry == nil {
		h.Registry = telemetry.NewRegistry()
	}
	h.Progress.AddTotal(streamBytes(segments))
	before := simCounters(h.Registry)
	e, err := h.New(a)
	if err != nil {
		return Dynamic{}, err
	}
	set := h.EngineSet()
	set.Ledger = h.Ledger(nil)
	e.Attach(set)
	for _, seg := range segments {
		e.Reset()
		if _, err = e.RunChecked(seg); err != nil {
			break
		}
	}
	if set.Ledger != nil {
		set.Ledger.Commit()
	}
	after := simCounters(h.Registry)
	return DynamicFrom(
		after[0]-before[0], after[1]-before[1],
		after[2]-before[2], after[3]-before[3]), err
}

// ObserveSegmentsParallelHooked computes the same Dynamic profile as
// ObserveSegmentsHooked but executes each segment as a
// component-partitioned parallel run (partition.ForWorkers + Plan.Run)
// across up to workers goroutines. The returned Dynamic is identical to
// the sequential path's for any workers value: Symbols counts stream
// symbols (not per-slice engine symbols), and the Active/Enabled/Report
// sums across independent slices equal the whole-automaton run's counts.
// h.Registry, when non-nil, is shared by every slice engine; its final
// contents are deterministic for a given workers value but describe
// per-slice work (sim.symbols accumulates the plan's passes × stream
// length, and the plan's slice count depends on workers). Progress
// heartbeats count per-slice engine bytes too, so the tracker's total is
// pre-credited with passes × stream length — ETA stays meaningful even
// though slices re-scan the stream. On a trip the Dynamic derived from
// completed segments is returned with the error.
func ObserveSegmentsParallelHooked(ctx context.Context, a *automata.Automaton, segments [][]byte, workers int, h Hooks) (Dynamic, error) {
	plan := partition.ForWorkers(a, workers)
	h.Progress.AddTotal(int64(plan.Passes()) * streamBytes(segments))
	var streamSymbols, active, enabled, reports int64
	for _, seg := range segments {
		res, err := plan.Run(ctx, seg, partition.RunOptions{Workers: workers, Hooks: h})
		if err != nil {
			return DynamicFrom(streamSymbols, active, enabled, reports), err
		}
		streamSymbols += int64(len(seg))
		active += res.Active
		enabled += res.Enabled
		reports += res.Reports
	}
	return DynamicFrom(streamSymbols, active, enabled, reports), nil
}

// StreamOptions parameterizes ObserveStreams.
type StreamOptions struct {
	// Workers bounds the scan's goroutines (<= 0 means one per CPU) and
	// feeds the automatic segment resolution.
	Workers int
	// Segments controls segment-parallel scanning of each stream
	// (internal/segment): 0 resolves automatically per stream from its
	// size and Workers (suite-sized inputs stay sequential, multi-MB
	// streams fan out), 1 disables it, N > 1 forces exactly N segments.
	Segments int
	Hooks
}

// ObserveStreams runs each stream as an independent scan — the engine
// state restarts per stream, like ObserveSegmentsHooked — optionally
// splitting each stream into segment-parallel pieces. It returns the
// Dynamic profile, the summed stitch accounting (zero when every stream
// resolved to one segment), and the first error.
//
// The Dynamic is derived from each stream's exact stitched Result, never
// from registry deltas, so it is identical for every Workers and Segments
// value — warmup and replay waste stay out of the Table-I columns and are
// visible only in the stitch accounting and the registry's sim.*/segment.*
// counters. When every stream resolves to a single segment the call
// delegates to ObserveSegmentsHooked, keeping the exact historical
// execution path (and its registry-delta derivation, which is equal there).
// On a governor trip, completed streams' exact profiles are returned with
// the error; the tripped stream's partial work is dropped, matching
// ObserveSegmentsParallelHooked.
func ObserveStreams(ctx context.Context, a *automata.Automaton, streams [][]byte, opts StreamOptions) (Dynamic, segment.Stitch, error) {
	segmented := false
	ks := make([]int, len(streams))
	for i, s := range streams {
		ks[i] = segment.Resolve(int64(len(s)), opts.Segments, opts.Workers, 0)
		if ks[i] > 1 {
			segmented = true
		}
	}
	if !segmented {
		d, err := ObserveSegmentsHooked(a, streams, opts.Hooks)
		return d, segment.Stitch{}, err
	}
	// Replayed segments re-scan their bytes, so progress can overshoot
	// this total slightly; ETA stays meaningful (waste is bounded by the
	// stitch accounting).
	opts.Progress.AddTotal(streamBytes(streams))
	var stitch segment.Stitch
	var symbols, active, enabled, reports int64
	for i, s := range streams {
		res, err := segment.Run(ctx, a, s, segment.Options{
			Segments: ks[i], Workers: opts.Workers, Hooks: opts.Hooks,
		})
		stitch.Add(res.Stitch)
		if err != nil {
			return DynamicFrom(symbols, active, enabled, reports), stitch, err
		}
		symbols += int64(len(s))
		active += res.Stats.Active
		enabled += res.Stats.Enabled
		reports += res.Stats.Reports
	}
	return DynamicFrom(symbols, active, enabled, reports), stitch, nil
}

// simCounters reads the four sim.* counters behind the dynamic columns in
// a fixed order: symbols, active, enabled, reports.
func simCounters(reg *telemetry.Registry) [4]int64 {
	return [4]int64{
		reg.Counter("sim.symbols").Value(),
		reg.Counter("sim.active").Value(),
		reg.Counter("sim.enabled").Value(),
		reg.Counter("sim.reports").Value(),
	}
}

// DynamicFrom derives the Table-I dynamic columns from cumulative engine
// totals. All rates zero-guard an empty input.
func DynamicFrom(symbols, active, enabled, reports int64) Dynamic {
	d := Dynamic{Symbols: symbols, Reports: reports}
	if symbols > 0 {
		d.ActiveSet = float64(active) / float64(symbols)
		d.EnabledSet = float64(enabled) / float64(symbols)
		d.ReportRate = float64(reports) / float64(symbols)
	}
	return d
}

// DynamicFromRegistry is DynamicFrom over a registry's cumulative sim.*
// counters.
func DynamicFromRegistry(reg *telemetry.Registry) Dynamic {
	c := simCounters(reg)
	return DynamicFrom(c[0], c[1], c[2], c[3])
}

// Row is one full Table-I row. TopOffender, when set, names the source
// pattern attributed the most runtime cost (experiments.Observer
// attribution); Format never renders it, so the printed table is
// unchanged.
type Row struct {
	Name   string
	Domain string
	Input  string
	Static
	Compression
	Dynamic
	TopOffender string
}

// Format renders the row in the layout of Table I.
func (r Row) Format() string {
	return fmt.Sprintf("%-22s %-28s %9d %9d %6.2f %8d %8.2f %8.2f %9d %6.2fx %10.3f",
		r.Name, r.Domain, r.States, r.Edges, r.EdgesPerNode,
		r.Subgraphs, r.AvgSize, r.StdDevSize,
		r.CompressedStates, r.Factor, r.ActiveSet)
}

// Header returns the Table-I column header matching Format.
func Header() string {
	return fmt.Sprintf("%-22s %-28s %9s %9s %6s %8s %8s %8s %9s %7s %10s",
		"Benchmark", "Domain", "States", "Edges", "E/N",
		"Subgr", "AvgSz", "StdDev", "ComprSt", "Factor", "ActiveSet")
}
