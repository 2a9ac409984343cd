// Package stats computes the per-benchmark statistics reported in the
// paper's Table I: static graph structure (states, edges, subgraphs,
// subgraph-size distribution), the prefix-merged "compressed" state count,
// and the dynamic active set measured by simulating the benchmark on its
// standard input.
//
// Simulation runs on the one scan driver (internal/scan). The Observe*
// functions are adapters naming its layouts: ObserveSegmentsHooked runs
// the whole automaton on one engine, ObserveSegmentsParallelHooked
// partitions it across a worker pool, and ObserveStreams splits large
// streams into segment-parallel pieces instead. The returned Dynamic
// is equal field-for-field whichever runs.
package stats

import (
	"context"
	"fmt"
	"math"

	"automatazoo/internal/automata"
	"automatazoo/internal/scan"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
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

// ObserveSegmentsHooked runs each segment as an independent stream on one
// whole-automaton engine with h attached (scan.Run's whole layout): the
// engine runs its checked path, so budgets, cancellation and injected
// faults stop the simulation mid-stream, and it heartbeats progress at
// its chunk boundaries. On a trip the Dynamic of the work completed so
// far is returned with the error.
func ObserveSegmentsHooked(a *automata.Automaton, segments [][]byte, h Hooks) (Dynamic, error) {
	return observe(context.Background(), a, segments, scan.Spec{Hooks: h, Workers: 1, Segments: 1})
}

// ObserveSegmentsParallelHooked is ObserveSegmentsHooked on scan.Run's
// component-slice layout: the automaton is partitioned across up to
// workers goroutines, one engine per slice. The returned Dynamic is
// identical to the sequential path's for any workers value; h.Registry
// describes per-slice work (sim.symbols accumulates the plan's passes ×
// stream length), as does the progress total.
func ObserveSegmentsParallelHooked(ctx context.Context, a *automata.Automaton, segments [][]byte, workers int, h Hooks) (Dynamic, error) {
	return observe(ctx, a, segments, scan.Spec{Hooks: h, Workers: workers, Segments: 1})
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

// ObserveStreams runs each stream as an independent scan on one
// whole-automaton engine, splitting a stream that resolves to more than
// one segment into segment-parallel pieces — never across component
// slices (scan.Unsliced): a Table-I kernel's workers fan out over
// kernels. It returns the Dynamic profile, the summed stitch
// accounting (zero when nothing was segmented), and the first error.
// Warmup and replay waste stay out of the Dynamic, visible only in the
// stitch accounting and the registry's sim.*/segment.* counters.
func ObserveStreams(ctx context.Context, a *automata.Automaton, streams [][]byte, opts StreamOptions) (Dynamic, segment.Stitch, error) {
	res, err := scan.Unsliced(ctx, a, streams, scan.Spec{Hooks: opts.Hooks, Workers: opts.Workers, Segments: opts.Segments})
	return dynamicOf(res.Stats), res.Stitch, err
}

func observe(ctx context.Context, a *automata.Automaton, streams [][]byte, sp scan.Spec) (Dynamic, error) {
	res, err := scan.Run(ctx, a, streams, sp)
	return dynamicOf(res.Stats), err
}

// dynamicOf derives the Table-I dynamic columns from cumulative engine
// totals (the sim.Stats rates zero-guard an empty input).
func dynamicOf(st sim.Stats) Dynamic {
	return Dynamic{
		Symbols: st.Symbols, Reports: st.Reports,
		ActiveSet: st.ActiveAvg(), EnabledSet: st.EnabledAvg(), ReportRate: st.ReportRate(),
	}
}

// Row is one full Table-I row.
type Row struct {
	Name   string
	Domain string
	Input  string
	Static
	Compression
	Dynamic
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
