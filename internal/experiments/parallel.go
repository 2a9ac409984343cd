package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"automatazoo/internal/automata"
	"automatazoo/internal/core"
	"automatazoo/internal/dfa"
	"automatazoo/internal/guard"
	"automatazoo/internal/parallel"
	"automatazoo/internal/randx"
	"automatazoo/internal/rf"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
	"automatazoo/internal/spatial"
	"automatazoo/internal/spm"
	"automatazoo/internal/stats"
	"automatazoo/internal/telemetry"
)

// The Table harnesses fan each table's independent benchmark kernels out
// across a worker pool (internal/parallel). Rows always come back in the
// table's canonical order, and telemetry is kept deterministic by giving
// every concurrent kernel its own registry and merging them into
// obs.Registry in row order once all kernels finish (telemetry.Registry
// merge semantics are commutative, so final contents do not depend on
// completion order). A shared tracer receives events from all kernels;
// interleaving across kernels is scheduling-dependent under workers > 1.
//
// workers == 1 runs every kernel inline in table order — the sequential
// harness. A nil obs runs the table unobserved.
//
// Rows that contain wall-clock timings (Tables III and IV) remain valid
// per-kernel measurements under workers > 1, but concurrent kernels share
// the machine: use workers == 1 when reproducing the paper's absolute
// numbers, and workers > 1 when regenerating many tables quickly.

// localRegistries allocates one registry per kernel when the experiment
// carries a shared one (nil entries otherwise), so concurrent kernels
// never contend and the merged result is deterministic.
func localRegistries(shared *telemetry.Registry, n int) []*telemetry.Registry {
	regs := make([]*telemetry.Registry, n)
	if shared != nil {
		for i := range regs {
			regs[i] = telemetry.NewRegistry()
		}
	}
	return regs
}

// mergeRegistries folds the per-kernel registries into shared in index
// order.
func mergeRegistries(shared *telemetry.Registry, regs []*telemetry.Registry) {
	if shared == nil {
		return
	}
	for _, r := range regs {
		shared.MergeFrom(r)
	}
}

// localSpans allocates one span fork per kernel when the experiment
// carries a span collector (nil entries otherwise): concurrent kernels
// record phase spans without contention, and adoptSpans folds them back
// in index order so the final span tree is deterministic regardless of
// completion order.
func localSpans(shared *telemetry.Spans, n int) []*telemetry.Spans {
	forks := make([]*telemetry.Spans, n)
	if shared != nil {
		for i := range forks {
			forks[i] = shared.Fork()
		}
	}
	return forks
}

// adoptSpans folds the per-kernel span forks into shared in index order.
func adoptSpans(shared *telemetry.Spans, forks []*telemetry.Spans) {
	if shared == nil {
		return
	}
	for _, f := range forks {
		shared.Adopt(f)
	}
}

// perSecond returns n/elapsed events per second, clamping elapsed to one
// microsecond: on coarse clocks (or trivially small inputs) time.Since
// can return zero, and the naive division would put +Inf — or NaN at
// n == 0 — into a throughput row and any report artifact derived from it.
func perSecond(n int, elapsed time.Duration) float64 {
	if elapsed < time.Microsecond {
		elapsed = time.Microsecond
	}
	return float64(n) / elapsed.Seconds()
}

// TableI regenerates Table I: every suite benchmark is generated at cfg's
// scale, its static statistics, (optionally) prefix-merge compression and
// simulated active set are computed — up to workers benchmarks
// concurrently — and the rows come back in Table I order regardless of
// completion order.
//
// Segment-parallel input scanning (internal/segment) is layered under the
// kernel fan-out: each kernel's input streams are additionally split into
// segments scanned speculatively and stitched exactly. segments follows
// the -segments flag convention — 0 resolves automatically per stream from
// its size and workers (the suite's standard inputs stay sequential), 1
// disables segmentation and pins the exact per-kernel sequential path,
// N > 1 forces exactly N. Rows are identical for every (workers, segments)
// pair; the speculation's stitch accounting surfaces through the
// observer's registry (segment.* counters), never in rows.
func TableI(ctx context.Context, cfg core.Config, compress bool, workers, segments int, obs *Observer) ([]stats.Row, error) {
	benches := core.All()
	rows := make([]stats.Row, len(benches))
	h, prog := obs.sinks()
	regs := localRegistries(h.Registry, len(benches))
	forks := localSpans(h.Spans, len(benches))
	err := parallel.ForEach(ctx, workers, len(benches), func(i int) error {
		b := benches[i]
		if err := h.Governor.Boundary(guard.SiteKernel, 0); err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		ksp := forks[i].Start(b.Name)
		defer ksp.End()
		bsp := ksp.Start("build")
		a, segs, err := b.Build(cfg)
		bsp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		// The kernel's bundle: its own registry and tracker. Its phase spans
		// are this harness's (ksp); the scan drivers get none.
		kh := h
		kh.Registry, kh.Spans, kh.Progress = regs[i], nil, prog.Tracker(b.Name)
		ssp := ksp.Start("simulate")
		dyn, _, err := stats.ObserveStreams(ctx, a, segs, stats.StreamOptions{
			Workers: workers, Segments: segments, Hooks: kh,
		})
		ssp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		kh.Progress.Done()
		row := stats.Row{
			Name:    b.Name,
			Domain:  b.Domain,
			Input:   b.Input,
			Static:  stats.Compute(a),
			Dynamic: dyn,
		}
		if compress {
			csp := ksp.Start("compress")
			row.Compression = stats.Compress(a)
			csp.End()
		}
		rows[i] = row
		return nil
	})
	// Merge telemetry on the error path too: a truncated table still
	// reports the partial phase spans and counters of the kernels that ran
	// (the pool has drained, so the forks and registries are settled).
	mergeRegistries(h.Registry, regs)
	adoptSpans(h.Spans, forks)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// TableII trains the three benchmark variants on the synthetic digit
// dataset — concurrently, on a dataset generated once and shared
// read-only — and reports the state/accuracy/runtime trade-offs of Table
// II. Runtime on a symbol-per-cycle architecture is proportional to
// symbols per classification, which is how the paper's 1.35x arises
// (270/200 features). Per-variant state and symbol-cost gauges are
// recorded into obs.Registry (there is no engine run to trace — the table
// compares trained models, not scans).
func TableII(ctx context.Context, samples int, seed uint64, workers int, obs *Observer) ([]TableIIRow, error) {
	ds := rf.GenerateDataset(samples, seed)
	train, test := ds.Split(0.8)
	variants := []rf.Variant{rf.VariantA, rf.VariantB, rf.VariantC}
	h, _ := obs.sinks()
	regs := localRegistries(h.Registry, len(variants))
	forks := localSpans(h.Spans, len(variants))
	rows, err := parallel.Map(ctx, workers, len(variants), func(i int) (TableIIRow, error) {
		v := variants[i]
		if err := h.Governor.Boundary(guard.SiteKernel, 0); err != nil {
			return TableIIRow{}, err
		}
		ksp := forks[i].Start("rf." + v.Name)
		defer ksp.End()
		tsp := ksp.Start("train")
		m, err := rf.Train(train, v, seed)
		tsp.End()
		if err != nil {
			return TableIIRow{}, err
		}
		bsp := ksp.Start("build")
		a, enc, err := m.BuildAutomaton()
		bsp.End()
		if err != nil {
			return TableIIRow{}, err
		}
		if r := regs[i]; r != nil {
			r.Gauge("table2.states." + v.Name).Set(int64(a.NumStates()))
			r.Gauge("table2.symbols_per_sample." + v.Name).Set(int64(enc.SymbolsPerSample))
		}
		row := TableIIRow{
			Variant:    v.Name,
			Features:   v.Features,
			MaxLeaves:  v.MaxLeaves,
			States:     a.NumStates(),
			Accuracy:   m.Accuracy(test),
			SymbolsPer: enc.SymbolsPerSample,
		}
		return row, nil
	})
	mergeRegistries(h.Registry, regs)
	adoptSpans(h.Spans, forks)
	if err != nil {
		return nil, err
	}
	var baseSymbols int
	for _, r := range rows {
		if r.Variant == "B" {
			baseSymbols = r.SymbolsPer
		}
	}
	for i := range rows {
		rows[i].RuntimeRel = float64(rows[i].SymbolsPer) / float64(baseSymbols)
	}
	return rows, nil
}

// TableIII measures the Section-VII experiment: the same Sequence Matching
// kernel built plain and with soft-reconfiguration padding, executed by
// the NFA interpreter (VASim proxy) and the lazy-DFA engine (Hyperscan
// proxy). The NFA engine pays for every enabled pad state; the DFA engine
// mostly absorbs them into precomputed transitions.
//
// The four timed kernels (NFA plain, NFA padded, DFA plain, DFA padded)
// run concurrently on up to workers goroutines. Each kernel's wall-clock
// measurement is taken on its own engine; with workers > 1 the kernels
// contend for the machine, so use workers == 1 for paper-fidelity
// absolute timings. Both engines' counts are published into obs.Registry,
// and the DFA engine traces cache events to obs.Tracer. (Symbol-level
// tracing is not attached inside the timed loops — it would measure the
// tracer, not the engine.)
func TableIII(ctx context.Context, filters, inputItemsets int, seed uint64, workers int, obs *Observer) ([]TableIIIRow, error) {
	h, prog := obs.sinks()
	rng := randx.New(seed)
	pats := make([]spm.Pattern, filters)
	for i := range pats {
		pats[i] = spm.RandomPattern(rng, 6)
	}
	// The two automaton builds are themselves independent work items.
	buildForks := localSpans(h.Spans, 2)
	built, err := parallel.Map(ctx, workers, 2, func(i int) (*automata.Automaton, error) {
		name := "build.plain"
		pad := 0
		if i == 1 {
			name, pad = "build.padded", 4
		}
		bsp := buildForks[i].Start(name)
		defer bsp.End()
		return spm.Benchmark(filters, 6, spm.Config{Padding: pad}, seed)
	})
	adoptSpans(h.Spans, buildForks)
	if err != nil {
		return nil, err
	}
	plain, padded := built[0], built[1]
	input := spm.Input(pats, inputItemsets, 5, 41, seed)

	bestOf := func(n int, f func() float64) float64 {
		best := f()
		for i := 1; i < n; i++ {
			if v := f(); v < best {
				best = v
			}
		}
		return best
	}
	regs := localRegistries(h.Registry, 4)
	timeNFA := func(a *automata.Automaton, kh segment.Hooks) (float64, error) {
		e := sim.New(a)
		kh.Tracer = nil // see the doc comment: not inside the timed loop
		e.Attach(kh.EngineSet(e))
		var rerr error
		sec := bestOf(3, func() float64 {
			e.Reset()
			start := time.Now()
			if _, err := e.RunChecked(input); err != nil && rerr == nil {
				rerr = err
			}
			kh.Publish(e)
			return time.Since(start).Seconds()
		})
		kh.Progress.Done()
		return sec, rerr
	}
	timeDFA := func(a *automata.Automaton, kh segment.Hooks) (float64, dfa.Stats, error) {
		e, err := dfa.New(a)
		if err != nil {
			return 0, dfa.Stats{}, err
		}
		e.Attach(kh.EngineSet(e))
		defer func() { kh.PublishCache(e.CacheStats()) }()
		_, err = e.RunChecked(input) // warm the transition cache fully
		kh.Publish(e)
		if err != nil {
			return 0, dfa.Stats{}, err
		}
		const loops = 12
		var rerr error
		sec := bestOf(3, func() float64 {
			start := time.Now()
			for l := 0; l < loops && rerr == nil; l++ {
				e.Reset()
				if _, err := e.RunChecked(input); err != nil {
					rerr = err
				}
				kh.Publish(e)
			}
			return time.Since(start).Seconds() / loops
		})
		kh.Progress.Done()
		return sec, e.CacheStats(), rerr
	}

	// Kernel order matches the sequential harness: NFA plain, NFA padded,
	// DFA plain, DFA padded.
	secs := make([]float64, 4)
	dfaStats := make([]dfa.Stats, 4)
	autos := []*automata.Automaton{plain, padded, plain, padded}
	names := []string{"nfa.plain", "nfa.padded", "dfa.plain", "dfa.padded"}
	forks := localSpans(h.Spans, 4)
	err = parallel.ForEach(ctx, workers, 4, func(i int) error {
		if err := h.Governor.Boundary(guard.SiteKernel, 0); err != nil {
			return err
		}
		ksp := forks[i].Start(names[i])
		defer ksp.End()
		kh := h
		kh.Registry, kh.Progress = regs[i], prog.Tracker("table3."+names[i])
		if i < 2 {
			sec, err := timeNFA(autos[i], kh)
			secs[i] = sec
			return err
		}
		sec, st, err := timeDFA(autos[i], kh)
		if err != nil {
			return err
		}
		secs[i], dfaStats[i] = sec, st
		return nil
	})
	mergeRegistries(h.Registry, regs)
	adoptSpans(h.Spans, forks)
	if err != nil {
		return nil, err
	}
	var cacheTotal dfa.Stats
	for _, st := range dfaStats {
		cacheTotal.CacheHits += st.CacheHits
		cacheTotal.CacheMisses += st.CacheMisses
		cacheTotal.CacheEvictions += st.CacheEvictions
		cacheTotal.Fallbacks += st.Fallbacks
		cacheTotal.FallbackBytes += st.FallbackBytes
	}
	// Overhead is undefined when the plain run measured no time at all
	// (possible on very coarse clocks); report 0 rather than ±Inf/NaN.
	pct := func(plain, padded float64) float64 {
		if plain <= 0 {
			return 0
		}
		return (padded - plain) / plain * 100
	}
	rows := []TableIIIRow{
		{Engine: "VASim (NFA interpreter)", PlainSec: secs[0], PaddedSec: secs[1], OverheadPct: pct(secs[0], secs[1])},
		{Engine: "Hyperscan (lazy DFA)", PlainSec: secs[2], PaddedSec: secs[3], OverheadPct: pct(secs[2], secs[3]),
			HasCache: true, CacheHitRate: cacheTotal.HitRate(), CacheEvictRate: cacheTotal.EvictionRate(),
			Fallbacks: cacheTotal.Fallbacks},
	}
	return rows, nil
}

// TableIV measures Random Forest classification throughput: automata
// inference on the lazy-DFA engine (Hyperscan proxy), native decision-tree
// inference single- and multi-threaded (Scikit-Learn proxy), and the
// analytical REAPR FPGA model — the paper's full-kernel cross-algorithm
// comparison, possible only because the benchmark is a complete model.
//
// The single-threaded kernels (the DFA scan, native single-threaded
// inference, and the REAPR model) run concurrently; the native
// multi-threaded measurement runs after the pool drains, because it
// saturates every core by itself. As with Table III, workers == 1 is the
// sequential harness. The DFA engine's counts are published into
// obs.Registry, and it traces cache events to obs.Tracer.
func TableIV(ctx context.Context, samples int, seed uint64, workers int, obs *Observer) ([]TableIVRow, error) {
	ds := rf.GenerateDataset(samples, seed)
	train, test := ds.Split(0.8)
	m, err := rf.Train(train, rf.VariantB, seed)
	if err != nil {
		return nil, err
	}
	a, enc, err := m.BuildAutomaton()
	if err != nil {
		return nil, err
	}
	const batchTarget = 20000
	batch := make([]rf.Sample, 0, batchTarget)
	for len(batch) < batchTarget {
		batch = append(batch, test.Samples...)
	}
	batch = batch[:batchTarget]

	var hsRate, nativeRate, fpgaRate float64
	var dfaStats dfa.Stats
	h, prog := obs.sinks()
	regs := localRegistries(h.Registry, 3)
	forks := localSpans(h.Spans, 3)
	kernels := []func() error{
		func() error { // Hyperscan proxy: per-sample DFA scan.
			ksp := forks[0].Start("hyperscan")
			defer ksp.End()
			hsN := min(2000, len(batch))
			encoded := make([][]byte, hsN)
			qbuf := make([]uint8, m.FM.NumSelected())
			esp := ksp.Start("encode")
			for i := 0; i < hsN; i++ {
				m.FM.QuantizeInto(batch[i].Pixels, qbuf)
				encoded[i] = enc.Encode(qbuf)
			}
			esp.End()
			de, err := dfa.New(a)
			if err != nil {
				return err
			}
			kh := h
			kh.Registry, kh.Progress = regs[0], prog.Tracker("table4.hyperscan")
			de.Attach(kh.EngineSet(de))
			defer kh.Progress.Done()
			defer func() { kh.PublishCache(de.CacheStats()) }()
			for _, s := range encoded[:min(64, len(encoded))] {
				de.Reset()
				_, err := de.RunChecked(s)
				kh.Publish(de)
				if err != nil {
					return err
				}
			}
			ssp := ksp.Start("scan")
			start := time.Now()
			for _, s := range encoded {
				de.Reset()
				_, err := de.RunChecked(s)
				kh.Publish(de)
				if err != nil {
					ssp.End()
					return err
				}
			}
			hsRate = perSecond(hsN, time.Since(start))
			ssp.End()
			dfaStats = de.CacheStats()
			return nil
		},
		func() error { // Native single-threaded, from raw pixels.
			ksp := forks[1].Start("native")
			defer ksp.End()
			qbuf := make([]uint8, m.FM.NumSelected())
			start := time.Now()
			for i := range batch {
				m.FM.QuantizeInto(batch[i].Pixels, qbuf)
				m.PredictQuantized(qbuf)
			}
			nativeRate = perSecond(len(batch), time.Since(start))
			return nil
		},
		func() error { // REAPR analytical model.
			ksp := forks[2].Start("reapr")
			defer ksp.End()
			fpgaRate = spatial.REAPR().ClassificationsPerSec(enc.SymbolsPerSample)
			return nil
		},
	}
	err = parallel.ForEach(ctx, workers, len(kernels), func(i int) error {
		if err := h.Governor.Boundary(guard.SiteKernel, 0); err != nil {
			return err
		}
		return kernels[i]()
	})
	mergeRegistries(h.Registry, regs)
	adoptSpans(h.Spans, forks)
	if err != nil {
		return nil, err
	}

	// Native multi-threaded, alone on the machine (recorded straight into
	// obs.Spans: the pool has drained, so there is no contention to avoid).
	msp := h.Spans.Start("native_mt")
	start := time.Now()
	m.PredictBatch(batch, runtime.GOMAXPROCS(0))
	mtRate := perSecond(len(batch), time.Since(start))
	msp.End()

	rows := []TableIVRow{
		{Engine: "Hyperscan (automata, CPU)", KClassPerSec: hsRate / 1e3,
			HasCache: true, CacheHitRate: dfaStats.HitRate(), CacheEvictRate: dfaStats.EvictionRate()},
		{Engine: "Scikit-Learn (native, 1 thread)", KClassPerSec: nativeRate / 1e3},
		{Engine: "Scikit-Learn MT (native)", KClassPerSec: mtRate / 1e3},
		{Engine: "REAPR FPGA (automata, model)", KClassPerSec: fpgaRate / 1e3},
	}
	for i := range rows {
		if rows[0].KClassPerSec > 0 {
			rows[i].Relative = rows[i].KClassPerSec / rows[0].KClassPerSec
		}
	}
	return rows, nil
}
