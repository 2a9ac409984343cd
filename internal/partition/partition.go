// Package partition splits a benchmark automaton across multiple passes of
// a capacity-limited spatial device. AutomataZoo deliberately ships
// benchmarks larger than any one chip ("If benchmarks are too large to fit
// into the resources of a target spatial architecture, researchers must
// develop ways to evaluate sequential runs of the partitioned benchmark" —
// Section III); this package is that mechanism: bin-pack the automaton's
// connected components into device-sized slices, extract each slice as a
// standalone automaton, and run the input once per slice, merging reports.
//
// Partitioning at component granularity is exact: components share no
// edges, so running them separately cannot change any report.
//
// The same independence makes slices the unit of CPU parallelism:
// Plan.Run fans the slices of a Plan out across a worker pool
// (internal/parallel) with one engine per slice for all of a run's
// streams and merges the report streams deterministically (RunParallel is
// its one-stream form), and ForWorkers builds a plan sized for a worker
// count rather than a device capacity. Workers 1 runs the passes one
// after another, the single-device multi-pass run. The one scan driver,
// internal/scan, picks this layout for -j N.
package partition

import (
	"context"
	"fmt"
	"sort"

	"automatazoo/internal/automata"
	"automatazoo/internal/guard"
	"automatazoo/internal/parallel"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
	"automatazoo/internal/telemetry"
)

// Slice is one device-load: a set of component indices and its state cost.
type Slice struct {
	Components []int32
	States     int
}

// Plan is a partition of an automaton into capacity-bounded slices.
type Plan struct {
	Capacity int
	Slices   []Slice

	a       *automata.Automaton
	compIdx []int32 // per-state component
	sizes   []int
}

// Partition bin-packs the automaton's components into slices of at most
// capacity states using first-fit decreasing. It fails if any single
// component exceeds the capacity (such a component would need
// intra-component cutting, which changes semantics).
func Partition(a *automata.Automaton, capacity int) (*Plan, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("partition: capacity must be positive")
	}
	sizes, compIdx := a.Components()
	order := make([]int32, len(sizes))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(x, y int) bool {
		if sizes[order[x]] != sizes[order[y]] {
			return sizes[order[x]] > sizes[order[y]]
		}
		return order[x] < order[y]
	})
	p := &Plan{Capacity: capacity, a: a, compIdx: compIdx, sizes: sizes}
	for _, c := range order {
		sz := sizes[c]
		if sz > capacity {
			return nil, fmt.Errorf("partition: component %d has %d states, exceeding capacity %d", c, sz, capacity)
		}
		placed := false
		for i := range p.Slices {
			if p.Slices[i].States+sz <= capacity {
				p.Slices[i].Components = append(p.Slices[i].Components, c)
				p.Slices[i].States += sz
				placed = true
				break
			}
		}
		if !placed {
			p.Slices = append(p.Slices, Slice{Components: []int32{c}, States: sz})
		}
	}
	return p, nil
}

// Passes returns the number of sequential device loads.
func (p *Plan) Passes() int { return len(p.Slices) }

// Utilization returns the mean fraction of capacity used per slice.
func (p *Plan) Utilization() float64 {
	if len(p.Slices) == 0 {
		return 0
	}
	var total float64
	for _, s := range p.Slices {
		total += float64(s.States) / float64(p.Capacity)
	}
	return total / float64(len(p.Slices))
}

// Extract materializes slice i as a standalone automaton. Report codes and
// all element properties are preserved; state IDs are renumbered.
func (p *Plan) Extract(i int) (*automata.Automaton, error) {
	if i < 0 || i >= len(p.Slices) {
		return nil, fmt.Errorf("partition: slice %d out of range", i)
	}
	want := map[int32]bool{}
	for _, c := range p.Slices[i].Components {
		want[c] = true
	}
	b := automata.NewBuilder()
	newID := make(map[automata.StateID]automata.StateID)
	n := p.a.NumStates()
	for s := 0; s < n; s++ {
		id := automata.StateID(s)
		if !want[p.compIdx[s]] {
			continue
		}
		var nid automata.StateID
		if p.a.Kind(id) == automata.KindCounter {
			cfg, _ := p.a.CounterConfig(id)
			nid = b.AddCounter(cfg.Target, cfg.Mode)
		} else {
			nid = b.AddSTE(p.a.Class(id), p.a.Start(id))
		}
		if p.a.IsReport(id) {
			b.SetReport(nid, p.a.ReportCode(id))
		}
		newID[id] = nid
	}
	for s := 0; s < n; s++ {
		id := automata.StateID(s)
		if !want[p.compIdx[s]] {
			continue
		}
		for _, t := range p.a.Succ(id) {
			b.AddEdge(newID[id], newID[t])
		}
	}
	return b.Build()
}

// SliceCompOf returns the per-state global component index of slice i's
// extracted automaton: Extract renumbers states in ascending global-ID
// order, so filtering the whole automaton's component map by the slice's
// component set reproduces the local numbering. The result is the compOf
// map an attribution ledger needs to charge slice-local engine events to
// global components (attr.Collector.Ledger).
func (p *Plan) SliceCompOf(i int) []int32 {
	want := map[int32]bool{}
	for _, c := range p.Slices[i].Components {
		want[c] = true
	}
	compOf := make([]int32, 0, p.Slices[i].States)
	for s := range p.compIdx {
		if want[p.compIdx[s]] {
			compOf = append(compOf, p.compIdx[s])
		}
	}
	return compOf
}

// Result aggregates a multi-pass run.
type Result struct {
	Passes  int
	Symbols int64 // total symbols across all passes
	Reports int64
	// Enabled and Active sum the engines' per-pass frontier and activation
	// counts (see sim.Stats). Components are independent, so these sums
	// equal a single whole-automaton run's counts, which is how the stats
	// package derives Table-I dynamic columns from a partitioned run.
	Enabled       int64
	Active        int64
	CounterPulses int64
}

func (r *Result) add(st sim.Stats) {
	r.Symbols += st.Symbols
	r.Reports += st.Reports
	r.Enabled += st.Enabled
	r.Active += st.Active
	r.CounterPulses += st.CounterPulses
}

// RunOptions parameterizes Plan.Run.
type RunOptions struct {
	// Workers bounds the goroutines running slices; <= 0 means one per
	// CPU, 1 runs the slices inline in order.
	Workers int
	// OnReport, if non-nil, receives every report after all passes
	// complete, stream by stream in the canonical merged order (see
	// RunParallel).
	OnReport func(sim.Report)
	// Hooks are attached to every slice engine. Run publishes each slice
	// pass's engine counts to the Registry when the pass ends (the pass is
	// the scan unit), so the registry describes per-slice engine work:
	// sim.symbols counts Passes() × the stream bytes. Every slice engine
	// gets a slice-local attribution ledger committed after its pass.
	segment.Hooks
}

// RunParallel executes input once per slice, fanning the slices out over
// a worker pool with one fresh engine per slice, and returns the
// aggregate Result. It is Run over one stream. The union of reports
// across passes equals a single-pass run of the whole automaton.
//
// Determinism contract: for a fixed Plan and input, the onReport callback
// sequence and the Result are identical for every workers value
// (including 1) and across runs. Reports are buffered per slice and
// delivered after all passes complete, ordered by input offset, ties
// broken by slice index and then by emission order within the slice.
//
// ctx cancellation abandons unstarted slices and returns ctx.Err(); a
// cancellable ctx is additionally observed mid-slice at engine chunk
// boundaries (a long input stops within ~4 KiB of the cancellation, not
// at the end of the pass). No reports are delivered on error.
func (p *Plan) RunParallel(ctx context.Context, workers int, input []byte, onReport func(sim.Report)) (Result, error) {
	return p.Run(ctx, [][]byte{input}, RunOptions{Workers: workers, OnReport: onReport})
}

// Run scans every stream once per slice: each slice is extracted once and
// its one engine scans the streams in order, Reset between them, while
// the slices fan out over the worker pool. Reports are delivered stream
// by stream under RunParallel's determinism contract.
func (p *Plan) Run(ctx context.Context, streams [][]byte, opts RunOptions) (Result, error) {
	res := Result{Passes: p.Passes()}
	stats := make([]sim.Stats, len(p.Slices))
	// A cancellable ctx without an explicit governor still gets mid-slice
	// cancellation observability: wrap it in a budget-free governor so the
	// slice engines check ctx at chunk boundaries. context.Background()
	// (Done() == nil) keeps the exact ungoverned path.
	if opts.Governor == nil && ctx != nil && ctx.Done() != nil {
		opts.Governor = guard.New(ctx, guard.Budget{})
	}
	// buffered[i][s] holds slice i's reports on stream s.
	var buffered [][][]sim.Report
	if opts.OnReport != nil {
		buffered = make([][][]sim.Report, len(p.Slices))
	}
	// Phase spans: each worker records into its own fork; forks are
	// adopted in slice-index order after the barrier, so the merged
	// extract/scan aggregates are deterministic at any worker count.
	root := opts.Spans.Start("partition.run")
	var sliceSpans []*telemetry.Spans
	if opts.Spans != nil {
		sliceSpans = make([]*telemetry.Spans, len(p.Slices))
		for i := range sliceSpans {
			sliceSpans[i] = opts.Spans.Fork()
		}
	}
	err := parallel.ForEach(ctx, opts.Workers, len(p.Slices), func(i int) error {
		if err := opts.Governor.Boundary(guard.SitePartitionSlice, 0); err != nil {
			return err
		}
		var ss *telemetry.Spans
		if sliceSpans != nil {
			ss = sliceSpans[i]
		}
		esp := ss.Start("extract")
		sub, err := p.Extract(i)
		esp.End()
		if err != nil {
			return err
		}
		e, err := opts.New(sub)
		if err != nil {
			return err
		}
		set := opts.EngineSet(e)
		if opts.Attribution != nil {
			set.Ledger = opts.Ledger(p.SliceCompOf(i))
			defer set.Ledger.Commit()
		}
		e.Attach(set)
		if buffered != nil {
			buffered[i] = make([][]sim.Report, len(streams))
		}
		rsp := ss.Start("scan")
		defer rsp.End()
		for s, input := range streams {
			e.Reset()
			if buffered != nil {
				e.SetOnReport(func(r sim.Report) { buffered[i][s] = append(buffered[i][s], r) })
			}
			st, err := e.RunChecked(input)
			opts.Publish(e)
			stats[i] = stats[i].Add(st)
			if err != nil {
				return err
			}
		}
		return nil
	})
	// Adopt the per-slice span forks and sum stats on the error path too:
	// a truncated run still reports its partial phase spans and work done
	// (ForEach has waited for in-flight slices, so the forks are settled).
	for i := range sliceSpans {
		root.Adopt(sliceSpans[i])
	}
	for _, st := range stats {
		res.add(st)
	}
	if err != nil {
		root.End()
		return res, err
	}
	if buffered != nil {
		msp := root.Start("merge")
		perSlice := make([][]sim.Report, len(p.Slices))
		for s := range streams {
			for i := range buffered {
				perSlice[i] = buffered[i][s]
			}
			for _, r := range mergeReports(perSlice) {
				opts.OnReport(r)
			}
		}
		msp.End()
	}
	root.End()
	return res, nil
}

// mergeReports flattens per-slice report buffers into the canonical order:
// by offset, ties broken by slice index then within-slice emission order.
// Concatenating slice-major and stably sorting by offset yields exactly
// that (each buffer is already offset-ordered).
func mergeReports(buffered [][]sim.Report) []sim.Report {
	total := 0
	for _, b := range buffered {
		total += len(b)
	}
	merged := make([]sim.Report, 0, total)
	for _, b := range buffered {
		merged = append(merged, b...)
	}
	sort.SliceStable(merged, func(x, y int) bool {
		return merged[x].Offset < merged[y].Offset
	})
	return merged
}

// ForWorkers partitions a for CPU fan-out rather than for a device: the
// capacity is chosen so the plan has roughly `workers` slices (somewhat
// more when component sizes pack unevenly — extra slices simply queue on
// the worker pool) while never splitting a component, so Partition cannot
// fail. workers <= 0 means one slice per CPU; workers == 1 yields a
// single slice.
func ForWorkers(a *automata.Automaton, workers int) *Plan {
	workers = parallel.Workers(workers)
	sizes, _ := a.Components()
	total, largest := 0, 1
	for _, sz := range sizes {
		total += sz
		if sz > largest {
			largest = sz
		}
	}
	capacity := (total + workers - 1) / workers
	if capacity < largest {
		capacity = largest
	}
	if capacity < 1 {
		capacity = 1
	}
	p, err := Partition(a, capacity)
	if err != nil {
		// Unreachable: capacity >= largest component by construction.
		panic(fmt.Sprintf("partition: ForWorkers: %v", err))
	}
	return p
}

// EffectiveThroughput models the end-to-end symbol throughput of the
// partitioned benchmark on a device with the given per-pass symbol rate:
// every input symbol is streamed once per pass.
func (p *Plan) EffectiveThroughput(symbolsPerSec float64) float64 {
	if p.Passes() == 0 {
		return symbolsPerSec
	}
	return symbolsPerSec / float64(p.Passes())
}
