// Command azoo drives the AutomataZoo suite: it lists and generates
// benchmarks, prints Table-I statistics, runs inputs through the engines,
// and regenerates every table and figure in the paper's evaluation.
//
// Usage:
//
//	azoo list
//	azoo stats  -bench "Snort" [-scale 0.05] [-input 200000] [-compress]
//	azoo run    -bench "ClamAV" [-scale 0.05] [-input 200000] [-engine nfa|dfa|prefilter] [-j N] [-segments K] [-checkpoint file [-checkpoint-interval N]]
//	azoo resume [-report out.json] [...telemetry/governor flags] <checkpoint-file>
//	azoo explain -bench "Snort" [-engine nfa|dfa|prefilter] [-top 10] [-json] [-j N] [-segments K]
//	azoo profile snort [-top 20] [-trace out.ndjson] [-metrics out.json]
//	azoo table1 [-scale 0.05] [-input 200000] [-compress] [-engine nfa|prefilter] [-j N] [-segments K]
//	azoo table2 [-samples 4000] [-j N]
//	azoo table3 [-filters 1719] [-itemsets 20000] [-j N]
//	azoo table4 [-samples 4000] [-j N]
//	azoo fig1   [-filters 10] [-symbols 1000000] [-trials 10]   (also Table V)
//	azoo snortrates [-scale 0.2] [-input 400000]
//	azoo bench  [-label ci] [-runs 3] [-kernels "Snort,Brill"] [-j N] [-segments K] [-prefilter]
//	azoo benchdiff old.json new.json [-threshold 5%]
//	azoo difftest [-seeds 500] [-states 12] [-input 512] [-seed 1] [-pair sim-dfa] [-json]
//	azoo version
//
// run and the table commands accept -report <file> to write a run-report
// manifest (environment provenance, per-kernel rows, phase spans, and the
// metrics snapshot); bench writes the same manifest as its artifact. See
// EXPERIMENTS.md ("Continuous benchmarking") for the schema and the
// bench → benchdiff regression-gate workflow.
//
// The live-ops surface rides the same flag set: -debug-addr serves pprof,
// expvar (/debug/vars), Prometheus text exposition (/metrics), and live
// heartbeat state (/progress); -progress <interval> prints per-kernel
// heartbeats to stderr; -stall-after <duration> arms a watchdog that trips
// the run and dumps a flight-recorder postmortem when a kernel stops
// heartbeating; -postmortem <file> overrides the dump path (default
// <report>.postmortem.ndjson). See EXPERIMENTS.md ("Live ops").
//
// Crash safety: run -checkpoint persists a durable, checksummed
// checkpoint of the scan (engine continuation, report cursor, metrics,
// attribution, budget remainder) every -checkpoint-interval bytes and on
// graceful drains; azoo resume restores it and finishes the run with
// stdout, manifests, and attribution byte-identical to an uninterrupted
// run (nfa/prefilter engines; dfa resumes exactly but re-warms its cache
// from cold). SIGINT/SIGTERM on a checkpointed or telemetry-active run
// trip the governor's graceful drain: engines stop at their next chunk
// boundary, a final checkpoint and postmortem are saved, the truncated
// manifest is written, and the process exits 3 (truncated) — a second
// signal forces immediate exit. See EXPERIMENTS.md ("Surviving a
// kill -9").
//
// The -j flag sets the worker count of the parallel execution layer
// (internal/parallel): -j 1 reproduces the single-threaded behaviour
// exactly, the default is one worker per CPU, and report output is
// byte-identical at every value (see ARCHITECTURE.md). The -segments
// flag adds segment-parallel input scanning (internal/segment): each
// stream splits into K speculatively-scanned segments stitched back to
// the exact sequential result — byte-identical output at any K, with
// the speculation accounting surfaced as segment.* metrics and seg_*
// manifest extras, never on stdout. The default 0 resolves
// automatically from stream size and -j (suite-sized streams stay
// unsegmented).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"

	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/core"
	"automatazoo/internal/dfa"
	"automatazoo/internal/experiments"
	"automatazoo/internal/hooks"
	"automatazoo/internal/mesh"
	"automatazoo/internal/mnrl"
	"automatazoo/internal/parallel"
	"automatazoo/internal/partition"
	"automatazoo/internal/prefilter"
	"automatazoo/internal/report"
	"automatazoo/internal/segment"
	"automatazoo/internal/spatial"
	"automatazoo/internal/stats"
	"automatazoo/internal/telemetry"
)

func main() {
	os.Exit(run())
}

// run dispatches the command and maps its error to an exit code (see
// cmd/azoo/guard.go for the table). A panic that escapes a command is
// caught here — reported with its stack, exit 1 — so no input or fault
// ever kills the process without a diagnosis.
func run() (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "azoo: panic: %v\n%s", r, debug.Stack())
			code = exitRuntime
		}
	}()
	if len(os.Args) < 2 {
		usage()
		return exitUsage
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "list":
		err = cmdList()
	case "stats":
		err = cmdStats(args)
	case "run":
		err = cmdRun(args)
	case "resume":
		err = cmdResume(args)
	case "explain":
		err = cmdExplain(args)
	case "profile":
		err = cmdProfile(args)
	case "table1":
		err = cmdTable1(args)
	case "table2":
		err = cmdTable2(args)
	case "table3":
		err = cmdTable3(args)
	case "table4":
		err = cmdTable4(args)
	case "fig1", "table5":
		err = cmdFig1(args)
	case "snortrates":
		err = cmdSnortRates(args)
	case "export":
		err = cmdExport(args)
	case "partition":
		err = cmdPartition(args)
	case "bench":
		err = cmdBench(args)
	case "benchdiff":
		err = cmdBenchDiff(args)
	case "difftest":
		err = cmdDifftest(args)
	case "version":
		err = cmdVersion()
	default:
		usage()
		return exitUsage
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "azoo:", err)
		return exitCode(err)
	}
	return exitOK
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: azoo <command> [flags]
commands:
  list         list the suite's benchmarks
  stats        Table-I statistics for one benchmark
  run          run a benchmark's standard input through an engine
  resume       continue an interrupted "run -checkpoint" from its checkpoint file
  explain      per-pattern cost attribution (top-K offenders, text or -json)
  profile      per-state activation heatmap of a benchmark run
  table1       regenerate Table I (suite statistics)
  table2       regenerate Table II (Random Forest variants)
  table3       regenerate Table III (padding overhead)
  table4       regenerate Table IV (Random Forest throughput)
  fig1|table5  regenerate Figure 1 and Table V (mesh profiling)
  snortrates   Section-V Snort report-rate experiment
  export       write a benchmark automaton as MNRL JSON or Graphviz dot
  partition    bin-pack a benchmark onto a capacity-limited device
  bench        run a kernel set N times and write a BENCH_<label>.json manifest
  benchdiff    compare two manifests; non-zero exit on throughput regression
  difftest     cross-engine differential soak; non-zero exit on divergence
  version      print the build's version and VCS revision`)
}

func suiteFlags(fs *flag.FlagSet) (*float64, *int, *uint64) {
	scale := fs.Float64("scale", 0.05, "pattern-count scale (1.0 = paper scale)")
	input := fs.Int("input", 200_000, "standard input bytes")
	seed := fs.Uint64("seed", 0xa20, "generator seed")
	return scale, input, seed
}

// workersFlag registers -j, the worker count of the parallel execution
// layer. 1 reproduces single-threaded behaviour exactly; output is
// byte-identical at every value.
func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("j", runtime.NumCPU(), "parallel workers (1 = sequential; output is identical at any value)")
}

// segmentsFlag registers -segments, the per-stream segment count of the
// segment-parallel scanner (internal/segment). 0 resolves automatically
// from each stream's size and -j — the suite's standard inputs stay on the
// exact sequential path, multi-MB streams fan out; printed output is
// byte-identical at every value.
func segmentsFlag(fs *flag.FlagSet) *int {
	return fs.Int("segments", 0, "segment-parallel pieces per input stream (0 = auto from stream size and -j, 1 = off; output is identical at any value)")
}

func cmdList() error {
	fmt.Printf("%-22s %-30s %s\n", "Benchmark", "Domain", "Input")
	for _, b := range core.All() {
		fmt.Printf("%-22s %-30s %s\n", b.Name, b.Domain, b.Input)
	}
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	scale, input, seed := suiteFlags(fs)
	name := fs.String("bench", "", "benchmark name (see `azoo list`)")
	compress := fs.Bool("compress", false, "also run prefix-merge compression")
	fs.Parse(args)
	b, err := core.ByName(*name)
	if err != nil {
		return err
	}
	cfg := core.Config{Scale: *scale, InputBytes: *input, Seed: *seed}
	a, segs, err := b.Build(cfg)
	if err != nil {
		return err
	}
	row := stats.Row{
		Name: b.Name, Domain: b.Domain, Input: b.Input,
		Static:  stats.Compute(a),
		Dynamic: stats.SimulateSegments(a, segs),
	}
	if *compress {
		row.Compression = stats.Compress(a)
	}
	fmt.Println(stats.Header())
	fmt.Println(row.Format())
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	scale, input, seed := suiteFlags(fs)
	name := fs.String("bench", "", "benchmark name")
	engine := fs.String("engine", "nfa", "engine: nfa (VASim-like), dfa (Hyperscan-like), or prefilter (two-stage literal prefilter)")
	workers := workersFlag(fs)
	segments := segmentsFlag(fs)
	tf := telemetryFlags(fs)
	gf := governorFlags(fs)
	cf := checkpointFlags(fs)
	fs.Parse(args)
	b, err := resolveBenchmark(*name)
	if err != nil {
		return err
	}
	sess, err := tf.session()
	if err != nil {
		return err
	}
	if err := armGovernor(sess, gf); err != nil {
		return err
	}
	if cf.armed() {
		// Checkpointed scans always drain gracefully on SIGINT/SIGTERM —
		// the final save needs a governor to stop the engines cooperatively.
		sess.armSignals(true)
	}
	cfg := core.Config{Scale: *scale, InputBytes: *input, Seed: *seed}
	h := sess.hooks(b.Name)
	bsp := h.Spans.Start("build")
	// With telemetry active the run carries cost attribution: the manifest
	// gains an attribution section and the registry azoo_attr_* families.
	// Without it col stays nil and every attribution hook is disabled
	// (zero-alloc, same discipline as the other hooks).
	var a *automata.Automaton
	var segs [][]byte
	var col *attr.Collector
	if h.Registry != nil {
		a, segs, col, err = b.BuildAttributed(cfg)
	} else {
		a, segs, err = b.Build(cfg)
	}
	bsp.End()
	if err != nil {
		return err
	}
	h.Attribution = col
	row := report.KernelRow{Name: b.Name, States: a.NumStates()}
	ssp := h.Spans.Start("scan")
	runConfig := suiteConfig(*scale, *input, *seed)
	runConfig["segments"] = fmt.Sprintf("%d", *segments)
	switch *engine {
	case "nfa", "prefilter":
		// -engine prefilter swaps every scan engine for the two-stage
		// literal prefilter via the factory — same exact stats and reports,
		// so all combinations print identical lines (asserted suite-wide by
		// TestRunOutputByteIdenticalAcrossWorkers).
		var dyn stats.Dynamic
		var stitch segment.Stitch
		var pfExtra func(*report.KernelRow)
		if *engine == "prefilter" {
			h.NewEngine = prefilterEngine
			if pfExtra, err = prefilterExtras(a, h.Registry); err != nil {
				return err
			}
		}
		if cf.armed() {
			meta := ckptMeta("run", b, *engine, *scale, *input, *seed, *workers, *segments, *cf.interval)
			dyn, stitch, err = runCheckpointedScan(cf.saver(h), meta, a, segs, h, *workers, *segments, nil)
		} else {
			dyn, stitch, err = scanNFA(a, segs, *workers, *segments, h)
		}
		h.Progress.Done()
		ssp.End()
		if err != nil {
			// A governor trip still records the partial work in the manifest.
			row.Symbols, row.Reports = dyn.Symbols, dyn.Reports
			addStitchExtra(&row, stitch)
			if pfExtra != nil {
				pfExtra(&row)
			}
			sess.recordAttribution(col)
			sess.setReport("run", *workers, runConfig, []report.KernelRow{row})
			return sess.closeTruncated(err)
		}
		row.Symbols, row.Reports = dyn.Symbols, dyn.Reports
		row.Extra = map[string]float64{"active_set": dyn.ActiveSet, "report_rate": dyn.ReportRate}
		addStitchExtra(&row, stitch)
		if pfExtra != nil {
			pfExtra(&row)
		}
		printRunNFA(b.Name, a.NumStates(), dyn)
	case "dfa":
		var symbols, reports int64
		var st dfa.Stats
		if cf.armed() {
			if *workers != 1 {
				return usageErrorf("-checkpoint with -engine dfa requires -j 1 (the checkpoint holds one engine's frontier)")
			}
			meta := ckptMeta("run", b, *engine, *scale, *input, *seed, *workers, *segments, *cf.interval)
			symbols, reports, st, err = runCheckpointedDFA(cf.saver(h), meta, a, segs, h, nil)
		} else {
			symbols, reports, st, err = scanDFA(a, segs, *workers, *segments, h)
		}
		h.Progress.Done()
		ssp.End()
		if err != nil {
			row.Symbols, row.Reports = symbols, reports
			sess.recordAttribution(col)
			sess.setReport("run", *workers, runConfig, []report.KernelRow{row})
			return sess.closeTruncated(err)
		}
		row.Symbols, row.Reports = symbols, reports
		row.HasCache, row.CacheHitRate, row.CacheEvictRate = true, st.HitRate(), st.EvictionRate()
		printRunDFA(b.Name, a.NumStates(), symbols, reports, st)
	default:
		return usageErrorf("unknown engine %q", *engine)
	}
	sess.recordAttribution(col)
	sess.setReport("run", *workers, runConfig, []report.KernelRow{row})
	return sess.Close()
}

// suiteConfig stringifies the shared suite flags for a report manifest.
func suiteConfig(scale float64, input int, seed uint64) map[string]string {
	return map[string]string{
		"scale":       fmt.Sprintf("%g", scale),
		"input_bytes": fmt.Sprintf("%d", input),
		"seed":        fmt.Sprintf("%#x", seed),
	}
}

// scanNFA scans every stream with the execution shape `run` and `explain`
// share for the nfa and prefilter engines: -j 1 is the exact single-engine
// path; -j N partitions the automaton across the worker pool; -segments
// (or automatic resolution on multi-MB streams) instead splits each
// stream into speculatively-scanned pieces.
func scanNFA(a *automata.Automaton, segs [][]byte, workers, segments int, h stats.Hooks) (stats.Dynamic, segment.Stitch, error) {
	// The command times the whole scan itself; the drivers' own phase spans
	// stay out of the manifest.
	h.Spans = nil
	segmented := false
	for _, seg := range segs {
		if segment.Resolve(int64(len(seg)), segments, workers, 0) > 1 {
			segmented = true
			break
		}
	}
	if workers == 1 || segmented {
		// ObserveStreams delegates to the exact sequential path when every
		// stream resolves to one segment.
		return stats.ObserveStreams(context.Background(), a, segs, stats.StreamOptions{
			Workers: workers, Segments: segments, Hooks: h,
		})
	}
	dyn, err := stats.ObserveSegmentsParallelHooked(context.Background(), a, segs, workers, h)
	return dyn, segment.Stitch{}, err
}

// scanDFA is scanNFA's dfa counterpart: one whole-automaton engine at
// -j 1, one engine per component slice otherwise.
func scanDFA(a *automata.Automaton, segs [][]byte, workers, segments int, h stats.Hooks) (symbols, reports int64, st dfa.Stats, err error) {
	if workers == 1 {
		return runDFAWhole(a, segs, segments, h)
	}
	return runDFAParallel(a, segs, workers, segments, h)
}

// engineSet is what an engine the command drives directly is attached
// with: the driver→engine conversion plus the session's Spans (no driver
// sits in between to time the scan) and, under attribution, a ledger over
// compOf (nil = the whole automaton).
func engineSet(h stats.Hooks, compOf []int32) hooks.Set {
	set := h.EngineSet()
	set.Spans = h.Spans
	set.Ledger = h.Ledger(compOf)
	return set
}

// annotateFlag registers -annotate, which appends per-kernel top-offender
// cost-attribution lines after a table. Default stdout is unchanged.
func annotateFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("annotate", false, "append per-kernel top-offender cost attribution after the table")
}

// annotatedObserver returns the session's observer with attribution
// enabled when -annotate was given (materializing an observer if the
// session alone would not have one).
func annotatedObserver(sess *obsSession, annotate bool) *experiments.Observer {
	obs := sess.observer()
	if annotate {
		if obs == nil {
			obs = &experiments.Observer{}
		}
		obs.Attribute = true
	}
	return obs
}

// prefilterEngine adapts prefilter.New to the segment.Engine factory
// shape shared by the hooks/partition plumbing.
func prefilterEngine(a *automata.Automaton) (segment.Engine, error) {
	return prefilter.New(a)
}

// prefilterExtras returns a closure recording the two-stage prefilter's
// manifest extras on a kernel row: the static anchored/unanchored
// component split (from a throwaway analysis engine — the scan engines
// live behind the factory and may be partitioned) and, when a registry is
// attached, the dynamic anchor-hit count and per-symbol density
// accumulated across every engine the run constructed. stdout never
// carries these — printed output must stay byte-identical to -engine nfa.
func prefilterExtras(a *automata.Automaton, reg *telemetry.Registry) (func(*report.KernelRow), error) {
	pf, err := prefilter.New(a)
	if err != nil {
		return nil, err
	}
	anchored, unanchored := pf.Anchored(), pf.Unanchored()
	var base int64
	if reg != nil {
		base = reg.Counter("prefilter.anchor_hits").Value()
	}
	return func(row *report.KernelRow) {
		if row.Extra == nil {
			row.Extra = map[string]float64{}
		}
		row.Extra["pf_anchored"] = float64(anchored)
		row.Extra["pf_unanchored"] = float64(unanchored)
		if reg != nil {
			hits := reg.Counter("prefilter.anchor_hits").Value() - base
			row.Extra["pf_anchor_hits"] = float64(hits)
			if row.Symbols > 0 {
				row.Extra["pf_anchor_hit_density"] = float64(hits) / float64(row.Symbols)
			}
		}
	}, nil
}

// addStitchExtra records the segment-parallel stitch accounting in a
// manifest kernel row. stdout never carries these (it must stay
// byte-identical across -segments); the manifest, the registry, and
// /metrics do.
func addStitchExtra(row *report.KernelRow, stitch segment.Stitch) {
	if stitch.Segments == 0 {
		return
	}
	if row.Extra == nil {
		row.Extra = map[string]float64{}
	}
	row.Extra["seg_segments"] = float64(stitch.Segments)
	row.Extra["seg_speculated"] = float64(stitch.Speculated)
	row.Extra["seg_committed"] = float64(stitch.Committed)
	row.Extra["seg_replayed"] = float64(stitch.Replayed)
	row.Extra["seg_warmup_bytes"] = float64(stitch.WarmupBytes)
	row.Extra["seg_replay_bytes"] = float64(stitch.ReplayBytes)
}

// dfaScanStream scans one stream on e (already Reset), in k resume-chunks
// when k > 1: each segment boundary round-trips the engine through
// CaptureState/RestoreState, exercising the frontier-snapshot resume path
// end to end. The lazy DFA has no speculative segment mode — its printed
// DFAStates and cache statistics are interning history, which concurrent
// speculation would perturb — so chunks run sequentially and the printed
// output is byte-identical at every k (see ARCHITECTURE.md).
func dfaScanStream(e *dfa.Engine, seg []byte, k int) (symbols, reports int64, err error) {
	if k <= 1 {
		st, err := e.RunChecked(seg)
		return st.Symbols, st.Reports, err
	}
	bounds := segment.Bounds(int64(len(seg)), k)
	for ci := 0; ci < k; ci++ {
		// RestoreState restarts per-stream stats, so each chunk's return is
		// chunk-local; cache counters persist across the handoff.
		if err := e.RestoreState(e.CaptureState()); err != nil {
			return symbols, reports, err
		}
		st, rerr := e.RunChecked(seg[bounds[ci]:bounds[ci+1]])
		symbols += st.Symbols
		reports += st.Reports
		if rerr != nil {
			return symbols, reports, rerr
		}
	}
	return symbols, reports, nil
}

// runDFAWhole scans every segment on one whole-automaton DFA engine (the
// -j 1 path). Under attribution the engine's ledger is committed after
// the scan.
func runDFAWhole(a *automata.Automaton, segs [][]byte, segments int, h stats.Hooks) (symbols, reports int64, st dfa.Stats, err error) {
	e, err := dfa.New(a)
	if err != nil {
		return 0, 0, dfa.Stats{}, err
	}
	h.Progress.AddTotal(remainingBytes(segs, 0, 0))
	set := engineSet(h, nil)
	e.Attach(set)
	if set.Ledger != nil {
		defer set.Ledger.Commit()
	}
	for _, seg := range segs {
		e.Reset()
		k := segment.Resolve(int64(len(seg)), segments, 1, 0)
		sym, rep, rerr := dfaScanStream(e, seg, k)
		symbols += sym
		reports += rep
		if rerr != nil {
			return symbols, reports, e.Stats(), rerr
		}
	}
	return symbols, reports, e.Stats(), nil
}

// runDFAParallel partitions the automaton at component granularity
// (partition.ForWorkers) and scans every segment on one DFA engine per
// slice across the worker pool. The lazy-DFA engine is strictly
// per-component — budgets, byte classes, interned states, and cache
// counters never cross components — so the summed statistics equal the
// whole-engine run's exactly and the printed output is byte-identical to
// -j 1. Under attribution every slice engine gets its own ledger (ledger
// commits are commutative, so the folded totals equal the whole-engine
// run's).
func runDFAParallel(a *automata.Automaton, segs [][]byte, workers, segments int, h stats.Hooks) (symbols, reports int64, agg dfa.Stats, err error) {
	plan := partition.ForWorkers(a, workers)
	// Per-slice engines re-scan the stream, so the heartbeat total is
	// passes × stream bytes — same convention as the stats parallel path.
	h.Progress.AddTotal(int64(plan.Passes()) * remainingBytes(segs, 0, 0))
	perSlice := make([]dfa.Stats, plan.Passes())
	sliceReports := make([]int64, plan.Passes())
	sliceProgress := make([]int64, plan.Passes())
	// Each slice's engine spans go to a fork adopted in slice-index order,
	// so the manifest's span tree is deterministic at any worker count.
	sliceSpans := make([]*telemetry.Spans, plan.Passes())
	for i := range sliceSpans {
		sliceSpans[i] = h.Spans.Fork()
	}
	err = parallel.ForEach(context.Background(), workers, plan.Passes(), func(i int) error {
		sub, err := plan.Extract(i)
		if err != nil {
			return err
		}
		e, err := dfa.New(sub)
		if err != nil {
			return err
		}
		var compOf []int32
		if h.Attribution != nil {
			compOf = plan.SliceCompOf(i)
		}
		set := engineSet(h, compOf)
		set.Spans = sliceSpans[i]
		e.Attach(set)
		if set.Ledger != nil {
			defer set.Ledger.Commit()
		}
		// Stats are captured even when a governor trip stops the slice
		// mid-stream, so a truncated manifest still describes partial work.
		defer func() { perSlice[i] = e.Stats() }()
		for _, seg := range segs {
			e.Reset() // clears per-run Symbols/Reports; cache counters persist
			k := segment.Resolve(int64(len(seg)), segments, workers, 0)
			sym, rep, serr := dfaScanStream(e, seg, k)
			sliceProgress[i] = sym
			sliceReports[i] += rep
			if serr != nil {
				return serr
			}
		}
		return nil
	})
	for _, f := range sliceSpans {
		h.Spans.Adopt(f)
	}
	if err != nil {
		// Truncated: report the furthest stream position any slice reached,
		// not the full stream length. perSlice covers a slice that died
		// before dfaScanStream returned (its Symbols are chunk-local under
		// -segments, never more than the true progress).
		for i, st := range perSlice {
			reports += sliceReports[i]
			p := sliceProgress[i]
			if st.Symbols > p {
				p = st.Symbols
			}
			if p > symbols {
				symbols = p
			}
		}
		return symbols, reports, agg, err
	}
	for _, seg := range segs {
		symbols += int64(len(seg)) // stream symbols, not per-slice engine work
	}
	for i, st := range perSlice {
		reports += sliceReports[i]
		agg.DFAStates += st.DFAStates
		agg.Fallbacks += st.Fallbacks
		agg.CacheHits += st.CacheHits
		agg.CacheMisses += st.CacheMisses
		agg.CacheEvictions += st.CacheEvictions
		agg.ConstructNanos += st.ConstructNanos
	}
	return symbols, reports, agg, nil
}

func cmdTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	scale, input, seed := suiteFlags(fs)
	compress := fs.Bool("compress", false, "also run prefix-merge compression (about 0.35 µs per state: 0.2 s for the 620 567 states of -scale 0.05)")
	engine := fs.String("engine", "nfa", "simulation engine: nfa or prefilter (rows are identical — exact engines)")
	workers := workersFlag(fs)
	segments := segmentsFlag(fs)
	annotate := annotateFlag(fs)
	tf := telemetryFlags(fs)
	gf := governorFlags(fs)
	fs.Parse(args)
	sess, err := tf.session()
	if err != nil {
		return err
	}
	if err := armGovernor(sess, gf); err != nil {
		return err
	}
	obs := annotatedObserver(sess, *annotate)
	switch *engine {
	case "nfa":
	case "prefilter":
		if obs == nil {
			obs = &experiments.Observer{}
		}
		obs.NewEngine = prefilterEngine
	default:
		return usageErrorf("unknown engine %q", *engine)
	}
	cfg := core.Config{Scale: *scale, InputBytes: *input, Seed: *seed}
	t1Config := suiteConfig(*scale, *input, *seed)
	t1Config["segments"] = fmt.Sprintf("%d", *segments)
	rows, err := experiments.TableI(context.Background(), cfg, *compress, *workers, *segments, obs)
	if err != nil {
		sess.setReport("table1", *workers, t1Config, nil)
		return sess.closeTruncated(err)
	}
	fmt.Printf("Table I (scale %.3f, input %d bytes)\n", *scale, *input)
	fmt.Println(stats.Header())
	for _, r := range rows {
		fmt.Println(r.Format())
	}
	if *annotate {
		fmt.Println("\ntop offenders (cost attribution):")
		for _, r := range rows {
			if r.TopOffender != "" {
				fmt.Printf("  %-22s %s\n", r.Name, r.TopOffender)
			}
		}
	}
	krows := make([]report.KernelRow, len(rows))
	for i, r := range rows {
		krows[i] = report.KernelRow{
			Name: r.Name, States: r.States, Symbols: r.Symbols, Reports: r.Reports,
			Extra: map[string]float64{
				"active_set":  r.ActiveSet,
				"report_rate": r.ReportRate,
				"subgraphs":   float64(r.Subgraphs),
			},
		}
	}
	sess.setReport("table1", *workers, t1Config, krows)
	return sess.Close()
}

func cmdTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	samples := fs.Int("samples", 4000, "dataset size")
	seed := fs.Uint64("seed", 7, "seed")
	workers := workersFlag(fs)
	annotate := annotateFlag(fs)
	tf := telemetryFlags(fs)
	gf := governorFlags(fs)
	fs.Parse(args)
	sess, err := tf.session()
	if err != nil {
		return err
	}
	if err := armGovernor(sess, gf); err != nil {
		return err
	}
	t2Config := map[string]string{
		"samples": fmt.Sprintf("%d", *samples), "seed": fmt.Sprintf("%#x", *seed),
	}
	rows, err := experiments.TableII(context.Background(), *samples, *seed, *workers, annotatedObserver(sess, *annotate))
	if err != nil {
		sess.setReport("table2", *workers, t2Config, nil)
		return sess.closeTruncated(err)
	}
	fmt.Println("Table II: Random Forest benchmark variant trade-offs")
	fmt.Printf("%-8s %9s %11s %9s %9s %8s\n",
		"Variant", "Features", "Max Leaves", "States", "Accuracy", "Runtime")
	krows := make([]report.KernelRow, len(rows))
	for i, r := range rows {
		fmt.Printf("%-8s %9d %11d %9d %8.2f%% %7.2fx\n",
			r.Variant, r.Features, r.MaxLeaves, r.States, r.Accuracy*100, r.RuntimeRel)
		krows[i] = report.KernelRow{
			Name: "rf." + r.Variant, States: r.States,
			Extra: map[string]float64{
				"accuracy":           r.Accuracy,
				"symbols_per_sample": float64(r.SymbolsPer),
				"runtime_rel":        r.RuntimeRel,
			},
		}
	}
	if *annotate {
		fmt.Println("\ntop offenders (cost attribution):")
		for _, r := range rows {
			if r.TopOffender != "" {
				fmt.Printf("  %-22s %s\n", "rf."+r.Variant, r.TopOffender)
			}
		}
	}
	sess.setReport("table2", *workers, t2Config, krows)
	return sess.Close()
}

func cmdTable3(args []string) error {
	fs := flag.NewFlagSet("table3", flag.ExitOnError)
	filters := fs.Int("filters", 1719, "sequence-matching filters")
	itemsets := fs.Int("itemsets", 20_000, "input itemsets")
	seed := fs.Uint64("seed", 3, "seed")
	workers := workersFlag(fs)
	annotate := annotateFlag(fs)
	tf := telemetryFlags(fs)
	gf := governorFlags(fs)
	fs.Parse(args)
	sess, err := tf.session()
	if err != nil {
		return err
	}
	if err := armGovernor(sess, gf); err != nil {
		return err
	}
	t3Config := map[string]string{
		"filters": fmt.Sprintf("%d", *filters), "itemsets": fmt.Sprintf("%d", *itemsets),
		"seed": fmt.Sprintf("%#x", *seed),
	}
	rows, err := experiments.TableIII(context.Background(), *filters, *itemsets, *seed, *workers, annotatedObserver(sess, *annotate))
	if err != nil {
		sess.setReport("table3", *workers, t3Config, nil)
		return sess.closeTruncated(err)
	}
	fmt.Println("Table III: impact of AP-specific padding on CPU engines")
	fmt.Printf("%-28s %10s %12s %10s %9s %9s\n",
		"CPU Engine", "6 Wide", "6 Wide Pad", "Overhead", "CacheHit", "Evict/Lk")
	krows := make([]report.KernelRow, len(rows))
	for i, r := range rows {
		hit, evict := "-", "-"
		if r.HasCache {
			hit = fmt.Sprintf("%.2f%%", r.CacheHitRate*100)
			evict = fmt.Sprintf("%.4f", r.CacheEvictRate)
		}
		fmt.Printf("%-28s %9.3fs %11.3fs %9.1f%% %9s %9s%s\n",
			r.Engine, r.PlainSec, r.PaddedSec, r.OverheadPct, hit, evict,
			degradedMark(r.Fallbacks))
		krows[i] = report.KernelRow{
			Name: r.Engine, HasCache: r.HasCache,
			CacheHitRate: r.CacheHitRate, CacheEvictRate: r.CacheEvictRate,
			Extra: map[string]float64{
				"plain_sec":    r.PlainSec,
				"padded_sec":   r.PaddedSec,
				"overhead_pct": r.OverheadPct,
			},
		}
		if r.Fallbacks > 0 {
			krows[i].Extra["fallbacks"] = float64(r.Fallbacks)
		}
	}
	if *annotate {
		fmt.Println("\ntop offenders (cost attribution):")
		for _, r := range rows {
			if r.TopOffender != "" {
				fmt.Printf("  %-28s %s\n", r.Engine, r.TopOffender)
			}
		}
	}
	sess.setReport("table3", *workers, t3Config, krows)
	return sess.Close()
}

func cmdTable4(args []string) error {
	fs := flag.NewFlagSet("table4", flag.ExitOnError)
	samples := fs.Int("samples", 4000, "dataset size")
	seed := fs.Uint64("seed", 5, "seed")
	workers := workersFlag(fs)
	annotate := annotateFlag(fs)
	tf := telemetryFlags(fs)
	gf := governorFlags(fs)
	fs.Parse(args)
	sess, err := tf.session()
	if err != nil {
		return err
	}
	if err := armGovernor(sess, gf); err != nil {
		return err
	}
	t4Config := map[string]string{
		"samples": fmt.Sprintf("%d", *samples), "seed": fmt.Sprintf("%#x", *seed),
	}
	rows, err := experiments.TableIV(context.Background(), *samples, *seed, *workers, annotatedObserver(sess, *annotate))
	if err != nil {
		sess.setReport("table4", *workers, t4Config, nil)
		return sess.closeTruncated(err)
	}
	fmt.Println("Table IV: Random Forest classification throughput")
	fmt.Printf("%-34s %16s %10s %9s %9s\n", "Engine", "kClass/sec", "Relative", "CacheHit", "Evict/Lk")
	krows := make([]report.KernelRow, len(rows))
	for i, r := range rows {
		hit, evict := "-", "-"
		if r.HasCache {
			hit = fmt.Sprintf("%.2f%%", r.CacheHitRate*100)
			evict = fmt.Sprintf("%.4f", r.CacheEvictRate)
		}
		fmt.Printf("%-34s %16.1f %9.1fx %9s %9s%s\n", r.Engine, r.KClassPerSec, r.Relative, hit, evict,
			degradedMark(r.Fallbacks))
		tp := report.AggregateOf([]float64{r.KClassPerSec})
		krows[i] = report.KernelRow{
			Name: r.Engine, Unit: "kClass/s", Throughput: &tp,
			HasCache: r.HasCache, CacheHitRate: r.CacheHitRate, CacheEvictRate: r.CacheEvictRate,
			Extra: map[string]float64{"relative": r.Relative},
		}
		if r.Fallbacks > 0 {
			krows[i].Extra["fallbacks"] = float64(r.Fallbacks)
		}
	}
	if *annotate {
		fmt.Println("\ntop offenders (cost attribution):")
		for _, r := range rows {
			if r.TopOffender != "" {
				fmt.Printf("  %-34s %s\n", r.Engine, r.TopOffender)
			}
		}
	}
	sess.setReport("table4", *workers, t4Config, krows)
	return sess.Close()
}

func cmdFig1(args []string) error {
	fs := flag.NewFlagSet("fig1", flag.ExitOnError)
	filters := fs.Int("filters", 10, "candidate filters per trial")
	symbols := fs.Int("symbols", 1_000_000, "input symbols per trial")
	trials := fs.Int("trials", 10, "trials per point")
	seed := fs.Uint64("seed", 0x5eed, "seed")
	fs.Parse(args)
	cfg := mesh.ProfileConfig{Filters: *filters, InputSymbols: *symbols, Trials: *trials, Seed: *seed}
	rows, err := experiments.Fig1AndTableV(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Figure 1: reports per filter per million symbols vs pattern length")
	for _, r := range rows {
		fmt.Printf("%s d=%d:\n", r.Kernel, r.D)
		for _, p := range r.Curve {
			fmt.Printf("  l=%-3d %12.3f\n", p.Length, p.ReportsPerMillion)
		}
	}
	fmt.Println("\nTable V: profile-selected variant parameters")
	fmt.Printf("%-12s %18s %18s %8s\n", "Kernel", "Scoring Dist (d)", "Pattern Len (l)", "Paper")
	for _, r := range rows {
		fmt.Printf("%-12s %18d %18d %8d\n", r.Kernel, r.D, r.ChosenL, r.PaperL)
	}
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	scale, input, seed := suiteFlags(fs)
	_ = input
	name := fs.String("bench", "", "benchmark name")
	format := fs.String("format", "mnrl", "output format: mnrl or dot")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	b, err := core.ByName(*name)
	if err != nil {
		return err
	}
	cfg := core.Config{Scale: *scale, InputBytes: 4096, Seed: *seed}
	a, _, err := b.Build(cfg)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "mnrl":
		return mnrl.WriteAutomaton(w, a, b.Name)
	case "dot":
		return a.WriteDot(w, b.Name)
	default:
		return usageErrorf("unknown format %q", *format)
	}
}

func cmdPartition(args []string) error {
	fs := flag.NewFlagSet("partition", flag.ExitOnError)
	scale, input, seed := suiteFlags(fs)
	_ = input
	name := fs.String("bench", "", "benchmark name")
	device := fs.String("device", "d480", "device model: d480 or reapr")
	fs.Parse(args)
	b, err := core.ByName(*name)
	if err != nil {
		return err
	}
	cfg := core.Config{Scale: *scale, InputBytes: 4096, Seed: *seed}
	a, _, err := b.Build(cfg)
	if err != nil {
		return err
	}
	var m spatial.Model
	switch *device {
	case "d480":
		m = spatial.MicronD480()
	case "reapr":
		m = spatial.REAPR()
	default:
		return usageErrorf("unknown device %q", *device)
	}
	plan, err := partition.Partition(a, m.StateCapacity)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d states on %s\n", b.Name, a.NumStates(), m)
	fmt.Printf("passes: %d, mean utilization %.1f%%\n", plan.Passes(), plan.Utilization()*100)
	fmt.Printf("effective throughput: %.1f MB/s (vs %.1f MB/s unpartitioned)\n",
		plan.EffectiveThroughput(m.SymbolsPerSec(0))/1e6, m.SymbolsPerSec(0)/1e6)
	return nil
}

func cmdSnortRates(args []string) error {
	fs := flag.NewFlagSet("snortrates", flag.ExitOnError)
	scale := fs.Float64("scale", 0.2, "ruleset scale")
	input := fs.Int("input", 400_000, "traffic bytes")
	seed := fs.Uint64("seed", 9, "seed")
	fs.Parse(args)
	rows, err := experiments.SnortRates(*scale, *input, *seed)
	if err != nil {
		return err
	}
	fmt.Println("Section V: Snort rule filtering vs report rate")
	fmt.Printf("%-34s %8s %10s %14s %8s\n", "Ruleset", "Rules", "Reports", "Reports/byte", "vs prev")
	prev := 0.0
	for i, r := range rows {
		rel := "-"
		if i > 0 && r.ReportRate > 0 {
			rel = fmt.Sprintf("%.1fx", prev/r.ReportRate)
		}
		fmt.Printf("%-34s %8d %10d %14.6f %8s\n",
			r.Mode, r.Rules, r.Reports, r.ReportRate, rel)
		prev = r.ReportRate
	}
	return nil
}
