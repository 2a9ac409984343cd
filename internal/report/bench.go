package report

import (
	"context"
	"fmt"
	"strings"
	"time"

	"automatazoo/internal/automata"
	"automatazoo/internal/core"
	"automatazoo/internal/hooks"
	"automatazoo/internal/partition"
	"automatazoo/internal/prefilter"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
	"automatazoo/internal/telemetry"
)

// BenchOptions configures one Bench invocation.
type BenchOptions struct {
	// Label names the artifact (BENCH_<label>.json).
	Label string
	// Runs is the number of timed repetitions per kernel (default 3).
	Runs int
	// Kernels filters the suite by case-insensitive exact name or
	// substring; empty runs every benchmark. A filter matching nothing is
	// an error (a silently empty report would read as "all green").
	Kernels []string
	// Config is the suite generation configuration.
	Config core.Config
	// Workers > 1 scans each kernel as a component-partitioned parallel
	// run; 1 (the default) uses the exact sequential engine, the right
	// choice when absolute numbers matter.
	Workers int
	// Segments > 1 adds, for each selected kernel, a second
	// "<name>@seg<N>" row timing the same scan split into N input
	// segments with max(Workers, N) scan workers — the sequential row
	// stays the absolute-number baseline, and the @seg row measures the
	// segment-parallel speedup on the same input. benchdiff matches rows
	// by name, so @seg rows gate only against their baseline twins.
	// <= 1 records no extra rows.
	Segments int
	// Prefilter adds, for each selected kernel, a "<name>@pf" row timing
	// the same sequential scan on the two-stage literal prefilter engine
	// (internal/prefilter) — the plain row stays the baseline, and the @pf
	// row measures the literal-anchor speedup on the same input. benchdiff
	// matches rows by name, so @pf rows gate only against their twins.
	Prefilter bool
	// Timestamp is the caller-supplied provenance stamp recorded in the
	// manifest (RFC3339, UTC recommended). Caller-supplied so artifacts
	// can be byte-reproducible.
	Timestamp time.Time
	// Clock supplies nanosecond timestamps for all span and throughput
	// timing; nil uses the real clock. Injectable for golden tests.
	Clock func() int64
	// Env overrides the captured environment (tests); nil captures the
	// process environment.
	Env *Environment
}

// Bench runs the selected kernel set Runs times each and assembles the
// run manifest: per-kernel min/mean/max throughput, a build/scan phase
// span tree (one root span per kernel), and the merged telemetry
// snapshot. Kernels run sequentially — concurrent kernels would contend
// for the machine and corrupt each other's timings; Workers parallelism
// applies inside a kernel's scan.
func Bench(opts BenchOptions) (*Manifest, error) {
	if opts.Runs <= 0 {
		opts.Runs = 3
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	benches, err := selectKernels(core.All(), opts.Kernels)
	if err != nil {
		return nil, err
	}
	clock := opts.Clock
	if clock == nil {
		clock = func() int64 { return time.Now().UnixNano() }
	}
	spans := telemetry.NewSpans()
	spans.SetClock(clock)
	reg := telemetry.NewRegistry()

	rows := make([]KernelRow, 0, len(benches))
	for _, b := range benches {
		krows, err := benchKernel(b, opts, spans, reg, clock)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", b.Name, err)
		}
		rows = append(rows, krows...)
	}

	env := CaptureEnv(opts.Workers)
	if opts.Env != nil {
		env = *opts.Env
	}
	snap := reg.Snapshot()
	return &Manifest{
		SchemaVersion: SchemaVersion,
		Label:         opts.Label,
		Command:       "bench",
		Timestamp:     opts.Timestamp.Format(time.RFC3339),
		Env:           env,
		Suite: map[string]string{
			"scale":       fmt.Sprintf("%g", opts.Config.Scale),
			"input_bytes": fmt.Sprintf("%d", opts.Config.InputBytes),
			"seed":        fmt.Sprintf("%#x", opts.Config.Seed),
			"runs":        fmt.Sprintf("%d", opts.Runs),
			"workers":     fmt.Sprintf("%d", opts.Workers),
			"segments":    fmt.Sprintf("%d", opts.Segments),
			"prefilter":   fmt.Sprintf("%t", opts.Prefilter),
		},
		Kernels: rows,
		Spans:   spans.Snapshot(),
		Metrics: &snap,
	}, nil
}

// benchKernel builds one benchmark and times Runs scans of its standard
// input, under a root span named after the kernel. With Segments > 1 the
// build is reused for a second, segment-parallel timing row.
func benchKernel(b core.Benchmark, opts BenchOptions, spans *telemetry.Spans, reg *telemetry.Registry, clock func() int64) ([]KernelRow, error) {
	ksp := spans.Start(b.Name)
	defer ksp.End()

	bsp := ksp.Start("build")
	a, segs, err := b.Build(opts.Config)
	bsp.End()
	if err != nil {
		return nil, err
	}
	var inputBytes int64
	for _, seg := range segs {
		inputBytes += int64(len(seg))
	}

	var plan *partition.Plan
	if opts.Workers > 1 {
		psp := ksp.Start("partition")
		plan = partition.ForWorkers(a, opts.Workers)
		psp.End()
	}
	var engine *sim.Engine
	if plan == nil {
		engine = sim.New(a)
		engine.Attach(hooks.Set{Registry: reg})
	}

	var symbols, reports int64
	rates := make([]float64, 0, opts.Runs)
	for r := 0; r < opts.Runs; r++ {
		rsp := ksp.Start("scan")
		start := clock()
		symbols, reports = 0, 0
		if plan != nil {
			for _, seg := range segs {
				// Partition spans go to a fork adopted under the scan span,
				// so slice-level timing aggregates across segments and reps.
				fork := spans.Fork()
				res, err := plan.Run(context.Background(), seg, partition.RunOptions{
					Workers: opts.Workers,
					Hooks:   segment.Hooks{Registry: reg, Spans: fork},
				})
				rsp.Adopt(fork)
				if err != nil {
					rsp.End()
					return nil, err
				}
				symbols += int64(len(seg))
				reports += res.Reports
			}
		} else {
			for _, seg := range segs {
				engine.Reset()
				st := engine.Run(seg)
				symbols += st.Symbols
				reports += st.Reports
			}
		}
		elapsed := clock() - start
		rsp.End()
		rates = append(rates, bytesPerSec(inputBytes, elapsed)/1e6)
	}

	agg := AggregateOf(rates)
	rows := []KernelRow{{
		Name:       b.Name,
		States:     a.NumStates(),
		Runs:       opts.Runs,
		Symbols:    symbols,
		Reports:    reports,
		Unit:       "MB/s",
		Throughput: &agg,
	}}
	if opts.Segments > 1 {
		srow, err := benchSegmented(b.Name, a, segs, inputBytes, opts, ksp, spans, reg, clock)
		if err != nil {
			return nil, err
		}
		rows = append(rows, srow)
	}
	if opts.Prefilter {
		prow, err := benchPrefilter(b.Name, a, segs, inputBytes, opts, ksp, reg, clock)
		if err != nil {
			return nil, err
		}
		rows = append(rows, prow)
	}
	return rows, nil
}

// benchPrefilter times the same kernel scan on the two-stage literal
// prefilter engine (sequential, whole-automaton — the configuration where
// absolute numbers are comparable to the plain row). The row's Extra
// carries the static anchored/unanchored component split and the last
// run's anchor-hit count, so a manifest explains its own @pf speedup: a
// kernel with pf_anchored = 0 degenerates to the plain engine plus
// Aho–Corasick overhead, and a high pf_anchor_hits density erodes the win.
func benchPrefilter(name string, a *automata.Automaton, segs [][]byte, inputBytes int64, opts BenchOptions, ksp *telemetry.Span, reg *telemetry.Registry, clock func() int64) (KernelRow, error) {
	e, err := prefilter.New(a)
	if err != nil {
		return KernelRow{}, err
	}
	e.Attach(hooks.Set{Registry: reg})
	var symbols, reports int64
	rates := make([]float64, 0, opts.Runs)
	for r := 0; r < opts.Runs; r++ {
		rsp := ksp.Start("scan@pf")
		start := clock()
		symbols, reports = 0, 0
		for _, seg := range segs {
			e.Reset()
			st := e.Run(seg)
			symbols += st.Symbols
			reports += st.Reports
		}
		elapsed := clock() - start
		rsp.End()
		rates = append(rates, bytesPerSec(inputBytes, elapsed)/1e6)
	}
	agg := AggregateOf(rates)
	return KernelRow{
		Name:       name + "@pf",
		States:     a.NumStates(),
		Runs:       opts.Runs,
		Symbols:    symbols,
		Reports:    reports,
		Unit:       "MB/s",
		Throughput: &agg,
		Extra: map[string]float64{
			"pf_anchored":    float64(e.Anchored()),
			"pf_unanchored":  float64(e.Unanchored()),
			"pf_anchor_hits": float64(e.AnchorHits()),
		},
	}, nil
}

// benchSegmented times the same kernel scan with each input stream split
// into opts.Segments segments over max(Workers, Segments) scan workers.
// Counter-bearing kernels cascade sequentially inside segment.Run, so
// their @seg rows track the plain rows — that flatness is signal, not a
// bug (see EXPERIMENTS.md).
func benchSegmented(name string, a *automata.Automaton, segs [][]byte, inputBytes int64, opts BenchOptions, ksp *telemetry.Span, spans *telemetry.Spans, reg *telemetry.Registry, clock func() int64) (KernelRow, error) {
	workers := opts.Workers
	if opts.Segments > workers {
		workers = opts.Segments
	}
	var symbols, reports int64
	rates := make([]float64, 0, opts.Runs)
	for r := 0; r < opts.Runs; r++ {
		rsp := ksp.Start("scan@seg")
		start := clock()
		symbols, reports = 0, 0
		for _, seg := range segs {
			fork := spans.Fork()
			res, err := segment.Run(context.Background(), a, seg, segment.Options{
				Segments: opts.Segments,
				Workers:  workers,
				Hooks:    segment.Hooks{Registry: reg, Spans: fork},
			})
			rsp.Adopt(fork)
			if err != nil {
				rsp.End()
				return KernelRow{}, err
			}
			symbols += res.Stats.Symbols
			reports += res.Stats.Reports
		}
		elapsed := clock() - start
		rsp.End()
		rates = append(rates, bytesPerSec(inputBytes, elapsed)/1e6)
	}
	agg := AggregateOf(rates)
	return KernelRow{
		Name:       fmt.Sprintf("%s@seg%d", name, opts.Segments),
		States:     a.NumStates(),
		Runs:       opts.Runs,
		Symbols:    symbols,
		Reports:    reports,
		Unit:       "MB/s",
		Throughput: &agg,
	}, nil
}

// bytesPerSec converts a byte count and elapsed nanoseconds to a rate,
// clamping the elapsed time to one microsecond: coarse clocks and tiny
// inputs can observe zero elapsed time, and a +Inf row would poison every
// later benchdiff against the artifact.
func bytesPerSec(n, nanos int64) float64 {
	if nanos < 1000 {
		nanos = 1000
	}
	return float64(n) / (float64(nanos) / 1e9)
}

// selectKernels resolves name filters against the registry in suite
// order: a filter matches by case-insensitive exact name first, then by
// substring; each benchmark appears at most once.
func selectKernels(all []core.Benchmark, filters []string) ([]core.Benchmark, error) {
	if len(filters) == 0 {
		return all, nil
	}
	picked := make([]bool, len(all))
	for _, f := range filters {
		lf := strings.ToLower(strings.TrimSpace(f))
		if lf == "" {
			continue
		}
		matched := false
		for i, b := range all {
			if strings.ToLower(b.Name) == lf {
				picked[i] = true
				matched = true
			}
		}
		if !matched {
			for i, b := range all {
				if strings.Contains(strings.ToLower(b.Name), lf) {
					picked[i] = true
					matched = true
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("report: no benchmark matches %q (see `azoo list`)", f)
		}
	}
	var out []core.Benchmark
	for i, b := range all {
		if picked[i] {
			out = append(out, b)
		}
	}
	return out, nil
}
