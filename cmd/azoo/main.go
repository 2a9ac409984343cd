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
//	azoo explain snort -states 20     (nfa: cost plan, then the per-state activation heatmap)
//	azoo table1 [-scale 0.05] [-input 200000] [-compress] [-engine nfa|prefilter] [-j N] [-segments K]
//	azoo table2 [-samples 4000] [-j N]
//	azoo table3 [-filters 1719] [-itemsets 20000] [-j N]
//	azoo table4 [-samples 4000] [-j N]
//	azoo fig1   [-filters 10] [-symbols 1000000] [-trials 10]   (also Table V)
//	azoo snortrates [-scale 0.2] [-input 400000]
//	azoo difftest [-seeds 500] [-states 12] [-input 2048] [-seed 1] [-json]
//	azoo version
//
// run and the table commands accept -report <file> to write a run-report
// manifest (environment provenance, per-kernel rows, phase spans, and the
// metrics snapshot); EXPERIMENTS.md ("Run manifests") has the schema.
// Speed is measured by the repository benchmark under bench/ (see
// bench/README.md), not by this command.
//
// The live-ops surface rides the same flag set: -debug-addr serves pprof,
// Prometheus text exposition (/metrics), and live heartbeat state
// (/progress); -progress <interval> prints per-kernel heartbeats to
// stderr; -stall-after <duration> arms a watchdog that trips the run and
// prints every goroutine's stack to stderr when a kernel stops
// heartbeating. See EXPERIMENTS.md ("Live ops").
//
// Crash safety: run -checkpoint persists a durable, checksummed
// checkpoint of the scan (engine continuation, report cursor, metrics,
// attribution, budget remainder) every -checkpoint-interval bytes and on
// graceful drains, with any engine at any -j and -segments; azoo resume
// restores it and finishes the run with stdout, manifests, and
// attribution byte-identical to an uninterrupted run — except the dfa
// engine's transition-cache line, which describes the resumed process
// only (its cache restarts cold). SIGINT/SIGTERM on a checkpointed or
// telemetry-active run trip the governor's graceful drain: engines stop
// at their next chunk boundary, a final checkpoint is saved, the
// truncated manifest is written, and the process exits 3
// (truncated) — a second signal forces immediate exit. See
// EXPERIMENTS.md ("Surviving a kill -9").
//
// Every command that scans a benchmark's streams does it through one
// driver, internal/scan. The -j flag sets the worker count of the
// parallel execution layer (internal/parallel): -j 1 reproduces the
// single-threaded behaviour exactly, the default is one worker per CPU,
// and report output is byte-identical at every value (see
// ARCHITECTURE.md, "Scan path"). The -segments flag adds segment-parallel
// input scanning: each stream splits into K speculatively-scanned
// segments stitched back to the exact sequential result — byte-identical
// output at any K, with the speculation accounting surfaced as segment.*
// metrics and seg_* manifest extras, never on stdout. The default 0
// resolves automatically from stream size and -j (suite-sized streams
// stay unsegmented); an uncheckpointed dfa run at -j N > 1 uses
// component slices instead, since the dfa never speculates.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"

	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/ckpt"
	"automatazoo/internal/core"
	"automatazoo/internal/experiments"
	"automatazoo/internal/mesh"
	"automatazoo/internal/mnrl"
	"automatazoo/internal/partition"
	"automatazoo/internal/report"
	"automatazoo/internal/scan"
	"automatazoo/internal/spatial"
	"automatazoo/internal/stats"
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
  explain      per-pattern cost plan (top-K offenders); -states K adds the state heatmap
  table1       regenerate Table I (suite statistics)
  table2       regenerate Table II (Random Forest variants)
  table3       regenerate Table III (padding overhead)
  table4       regenerate Table IV (Random Forest throughput)
  fig1|table5  regenerate Figure 1 and Table V (mesh profiling)
  snortrates   Section-V Snort report-rate experiment
  export       write a benchmark automaton as MNRL JSON or Graphviz dot
  partition    bin-pack a benchmark onto a capacity-limited device
  difftest     cross-engine differential soak; non-zero exit on divergence
  version      print the build's version and VCS revision`)
}

// buildFlags registers the generator flags of every command that builds a
// benchmark and returns the config they fill in at Parse. The standard
// input is fixed at 4 KiB: commands that scan it register -input on top
// (suiteFlags); the others only need the automaton.
func buildFlags(fs *flag.FlagSet) *core.Config {
	cfg := &core.Config{InputBytes: 4096}
	fs.Float64Var(&cfg.Scale, "scale", 0.05, "pattern-count scale (1.0 = paper scale)")
	fs.Uint64Var(&cfg.Seed, "seed", 0xa20, "generator seed")
	return cfg
}

// suiteFlags is buildFlags plus -input, the standard-input length.
func suiteFlags(fs *flag.FlagSet) *core.Config {
	cfg := buildFlags(fs)
	fs.IntVar(&cfg.InputBytes, "input", 200_000, "standard input bytes")
	return cfg
}

// parseBench registers -bench on fs, parses args — the name may also lead
// them as a bare argument (`azoo explain snort`) — and resolves it. It is
// the one benchmark-name path of every single-benchmark command: a missing,
// unknown or ambiguous name is a usage error.
func parseBench(fs *flag.FlagSet, args []string) (core.Benchmark, error) {
	name := fs.String("bench", "", "benchmark name, exact or a unique case-insensitive substring (see `azoo list`); may also be given as the first argument")
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		*name, args = args[0], args[1:]
	}
	fs.Parse(args)
	if *name == "" {
		return core.Benchmark{}, usageErrorf("%s: benchmark name required (azoo %[1]s <benchmark>)", fs.Name())
	}
	return resolveBenchmark(*name)
}

// resolveBenchmark finds a benchmark by exact name, case-insensitive
// name, or unique case-insensitive substring — so `azoo explain snort`
// works without quoting the registry's exact "Snort". No match or several
// is a usage error.
func resolveBenchmark(name string) (core.Benchmark, error) {
	if b, err := core.ByName(name); err == nil {
		return b, nil
	}
	lower := strings.ToLower(name)
	var matches []core.Benchmark
	for _, b := range core.All() {
		ln := strings.ToLower(b.Name)
		if ln == lower {
			return b, nil
		}
		if strings.Contains(ln, lower) {
			matches = append(matches, b)
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return core.Benchmark{}, usageErrorf("unknown benchmark %q (see `azoo list`)", name)
	default:
		names := make([]string, len(matches))
		for i, b := range matches {
			names[i] = b.Name
		}
		return core.Benchmark{}, usageErrorf("benchmark %q is ambiguous: %s", name, strings.Join(names, ", "))
	}
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

// cmdVersion prints the build's module version and VCS revision — the
// same provenance recorded in every run-report manifest.
func cmdVersion() error {
	fmt.Println(report.VersionString())
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	cfg := suiteFlags(fs)
	compress := fs.Bool("compress", false, "also run prefix-merge compression")
	b, err := parseBench(fs, args)
	if err != nil {
		return err
	}
	a, segs, err := b.Build(*cfg)
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

// engineUsage is the -engine help of the commands that take all three
// engines.
const engineUsage = "engine: nfa (VASim-like), dfa (Hyperscan-like), or prefilter (two-stage literal prefilter)"

// engineFlag registers -engine on fs, accepting names (the first is the
// default), and returns the chosen name once it is known to be one of
// them: anything else is a usage error, raised before the benchmark is
// built. scan.Factory turns the name into the engine.
func engineFlag(fs *flag.FlagSet, usage string, names ...string) func() (string, error) {
	name := fs.String("engine", names[0], usage)
	return func() (string, error) {
		if !slices.Contains(names, *name) {
			return "", usageErrorf("unknown engine %q (want %s)", *name, strings.Join(names, ", "))
		}
		return *name, nil
	}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	cfg := suiteFlags(fs)
	engine := engineFlag(fs, engineUsage, "nfa", "dfa", "prefilter")
	workers := workersFlag(fs)
	segments := segmentsFlag(fs)
	ckptPath := fs.String("checkpoint", "",
		"write crash-safe scan checkpoints to this file; resume an interrupted run with `azoo resume <file>` (scans on one whole-automaton engine; -j sizes the segment worker pool)")
	interval := fs.Int64("checkpoint-interval", ckpt.DefaultInterval,
		"input bytes scanned between periodic checkpoints (aligned down to a 4096-byte multiple)")
	tf := telemetryFlags(fs)
	gf := governorFlags(fs)
	b, err := parseBench(fs, args)
	if err != nil {
		return err
	}
	name, err := engine()
	if err != nil {
		return err
	}
	sess, err := openSession(tf, gf)
	if err != nil {
		return err
	}
	return runScan(sess, scanSpec{
		bench: b, cfg: *cfg, ckptPath: *ckptPath,
		meta: ckpt.Meta{
			Command: "run", Label: b.Name, Engine: name,
			Flags: map[string]string{
				"bench": b.Name,
				"scale": fmt.Sprintf("%g", cfg.Scale),
				"input": fmt.Sprintf("%d", cfg.InputBytes),
				"seed":  fmt.Sprintf("%#x", cfg.Seed),
			},
			Interval: ckpt.AlignInterval(*interval), Workers: *workers, Segments: *segments,
		},
	})
}

// scanSpec is what `run` scans and how. meta is the recipe a checkpoint
// persists — engine, execution knobs that fix the scan layout and so the
// save grid, and the suite flags as strings; bench and cfg are those
// flags resolved. cmdRun fills it from its flags, cmdResume from a
// checkpoint (which is then also where to start).
type scanSpec struct {
	meta     ckpt.Meta
	bench    core.Benchmark
	cfg      core.Config
	ckptPath string // "" = no checkpointing
	start    *ckpt.Checkpoint
}

// runScan is the one body of `run` and `resume`: build the benchmark, scan
// its standard input through scan.Run (from the spec's checkpoint, if
// any), print the result and record the manifest row. A straight run and
// a resumed one differ only in sp, so their output is identical by
// construction.
func runScan(sess *obsSession, sp scanSpec) error {
	if sp.ckptPath != "" {
		// Checkpointed scans always drain gracefully on SIGINT/SIGTERM —
		// the final save needs a governor to stop the engines cooperatively.
		sess.armSignals(true)
	}
	b, m := sp.bench, sp.meta
	h := sess.hooks(b.Name)
	var err error
	if h.NewEngine, err = scan.Factory(m.Engine); err != nil {
		return err
	}
	bsp := h.Spans.Start("build")
	// With telemetry active the run carries cost attribution: the manifest
	// gains an attribution section and the registry azoo_attr_* families.
	// Without it col stays nil and every attribution hook is disabled
	// (zero-alloc, same discipline as the other hooks).
	var a *automata.Automaton
	var segs [][]byte
	var col *attr.Collector
	if h.Registry != nil {
		a, segs, col, err = b.BuildAttributed(sp.cfg)
	} else {
		a, segs, err = b.Build(sp.cfg)
	}
	bsp.End()
	if err != nil {
		return err
	}
	h.Attribution = col
	spec := scan.Spec{Hooks: h, Workers: m.Workers, Segments: m.Segments, Start: sp.start}
	spec.Spans = nil // the command times the scan as a whole
	if sp.ckptPath != "" {
		spec.Saver = &ckpt.Saver{Path: sp.ckptPath, Interval: m.Interval, Meta: m}
	}
	ssp := h.Spans.Start("scan")
	res, err := scan.Run(context.Background(), a, segs, spec)
	h.Progress.Done()
	ssp.End()
	st := res.Stats
	row := report.KernelRow{Name: b.Name, States: a.NumStates(), Symbols: st.Symbols, Reports: st.Reports}
	switch {
	case err != nil:
		// A governor trip still records the partial work in the manifest.
	case res.Cache != nil:
		row.HasCache, row.CacheHitRate, row.CacheEvictRate = true, res.Cache.HitRate(), res.Cache.EvictionRate()
	default:
		row.Extra = map[string]float64{"active_set": st.ActiveAvg(), "report_rate": st.ReportRate()}
	}
	if err == nil {
		fmt.Print(res.Format(b.Name, a.NumStates()))
	}
	addStitchExtra(&row, res)
	if m.Engine == "prefilter" && sess.reportPath != "" {
		if perr := addPrefilterExtra(&row, a, h); perr != nil {
			return perr
		}
	}
	sess.recordAttribution(col)
	sess.setReport(m.Command, m.Workers, suiteConfig(sp.cfg, m.Segments), []report.KernelRow{row})
	if err != nil {
		return sess.closeTruncated(err)
	}
	return sess.Close()
}

// suiteConfig stringifies the suite flags run and table1 share for a
// report manifest.
func suiteConfig(cfg core.Config, segments int) map[string]string {
	return map[string]string{
		"scale":       fmt.Sprintf("%g", cfg.Scale),
		"input_bytes": fmt.Sprintf("%d", cfg.InputBytes),
		"seed":        fmt.Sprintf("%#x", cfg.Seed),
		"segments":    fmt.Sprintf("%d", segments),
	}
}

// addPrefilterExtra records the two-stage prefilter's manifest extras on a
// kernel row: the static anchored/unanchored component split (from an
// analysis engine built only for this — the scan's engines may be
// partitioned — so callers skip it when no manifest will be written) and
// the anchor-hit count and per-symbol density accumulated in h.Registry
// (the session's registry, which -report always arms) across every engine
// the run constructed. stdout never carries these — printed output must
// stay byte-identical to -engine nfa.
func addPrefilterExtra(row *report.KernelRow, a *automata.Automaton, h stats.Hooks) error {
	e, err := h.NewEngine(a)
	if err != nil {
		return err
	}
	pf := e.(interface {
		Anchored() int
		Unanchored() int
	})
	if row.Extra == nil {
		row.Extra = map[string]float64{}
	}
	row.Extra["pf_anchored"] = float64(pf.Anchored())
	row.Extra["pf_unanchored"] = float64(pf.Unanchored())
	hits := h.Registry.Counter("prefilter.anchor_hits").Value()
	row.Extra["pf_anchor_hits"] = float64(hits)
	if row.Symbols > 0 {
		row.Extra["pf_anchor_hit_density"] = float64(hits) / float64(row.Symbols)
	}
	return nil
}

// addStitchExtra records the segment-parallel stitch accounting in a
// manifest kernel row. stdout never carries these (it must stay
// byte-identical across -segments); the manifest, the registry, and
// /metrics do.
func addStitchExtra(row *report.KernelRow, res scan.Result) {
	stitch := res.Stitch
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

// runTable is the one body of the four table commands. It registers the
// flags they share on fs (-j, telemetry, governor), parses, arms the
// session and governor, and calls table, which computes the experiment
// and — only if that succeeded — prints it, returning the manifest's
// config map and rows. runTable turns an error into the truncated
// manifest, records the report and closes the session.
func runTable(fs *flag.FlagSet, args []string,
	table func(workers int, obs *experiments.Observer) (map[string]string, []report.KernelRow, error)) error {
	workers := workersFlag(fs)
	tf := telemetryFlags(fs)
	gf := governorFlags(fs)
	fs.Parse(args)
	sess, err := openSession(tf, gf)
	if err != nil {
		return err
	}
	// With nothing armed this is the zero Observer, which observes nothing.
	obs := &experiments.Observer{Hooks: sess.Hooks, Progress: sess.prog}
	config, rows, err := table(*workers, obs)
	if err != nil {
		sess.setReport(fs.Name(), *workers, config, nil)
		return sess.closeTruncated(err)
	}
	sess.setReport(fs.Name(), *workers, config, rows)
	return sess.Close()
}

func cmdTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	cfg := suiteFlags(fs)
	compress := fs.Bool("compress", false, "also run prefix-merge compression (about 0.35 µs per state: 0.2 s for the 620 567 states of -scale 0.05)")
	engine := engineFlag(fs, "simulation engine: nfa or prefilter (rows are identical — exact engines)", "nfa", "prefilter")
	segments := segmentsFlag(fs)
	return runTable(fs, args, func(workers int, obs *experiments.Observer) (map[string]string, []report.KernelRow, error) {
		config := suiteConfig(*cfg, *segments)
		name, err := engine()
		if err != nil {
			return config, nil, err
		}
		if obs.NewEngine, err = scan.Factory(name); err != nil {
			return config, nil, err
		}
		rows, err := experiments.TableI(context.Background(), *cfg, *compress, workers, *segments, obs)
		if err != nil {
			return config, nil, err
		}
		fmt.Printf("Table I (scale %.3f, input %d bytes)\n", cfg.Scale, cfg.InputBytes)
		fmt.Println(stats.Header())
		out := make([]report.KernelRow, len(rows))
		for i, r := range rows {
			fmt.Println(r.Format())
			out[i] = report.KernelRow{
				Name: r.Name, States: r.States, Symbols: r.Symbols, Reports: r.Reports,
				Extra: map[string]float64{
					"active_set":  r.ActiveSet,
					"report_rate": r.ReportRate,
					"subgraphs":   float64(r.Subgraphs),
				},
			}
		}
		return config, out, nil
	})
}

func cmdTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	samples := fs.Int("samples", 4000, "dataset size")
	seed := fs.Uint64("seed", 7, "seed")
	return runTable(fs, args, func(workers int, obs *experiments.Observer) (map[string]string, []report.KernelRow, error) {
		config := map[string]string{
			"samples": fmt.Sprintf("%d", *samples), "seed": fmt.Sprintf("%#x", *seed),
		}
		rows, err := experiments.TableII(context.Background(), *samples, *seed, workers, obs)
		if err != nil {
			return config, nil, err
		}
		fmt.Println("Table II: Random Forest benchmark variant trade-offs")
		fmt.Printf("%-8s %9s %11s %9s %9s %8s\n",
			"Variant", "Features", "Max Leaves", "States", "Accuracy", "Runtime")
		out := make([]report.KernelRow, len(rows))
		for i, r := range rows {
			fmt.Printf("%-8s %9d %11d %9d %8.2f%% %7.2fx\n",
				r.Variant, r.Features, r.MaxLeaves, r.States, r.Accuracy*100, r.RuntimeRel)
			out[i] = report.KernelRow{
				Name: "rf." + r.Variant, States: r.States,
				Extra: map[string]float64{
					"accuracy":           r.Accuracy,
					"symbols_per_sample": float64(r.SymbolsPer),
					"runtime_rel":        r.RuntimeRel,
				},
			}
		}
		return config, out, nil
	})
}

// cacheColumns renders the CacheHit and Evict/Lk cells Tables III and IV
// share ("-" for engines without a transition cache).
func cacheColumns(hasCache bool, hitRate, evictRate float64) (hit, evict string) {
	if !hasCache {
		return "-", "-"
	}
	return fmt.Sprintf("%.2f%%", hitRate*100), fmt.Sprintf("%.4f", evictRate)
}

func cmdTable3(args []string) error {
	fs := flag.NewFlagSet("table3", flag.ExitOnError)
	filters := fs.Int("filters", 1719, "sequence-matching filters")
	itemsets := fs.Int("itemsets", 20_000, "input itemsets")
	seed := fs.Uint64("seed", 3, "seed")
	return runTable(fs, args, func(workers int, obs *experiments.Observer) (map[string]string, []report.KernelRow, error) {
		config := map[string]string{
			"filters": fmt.Sprintf("%d", *filters), "itemsets": fmt.Sprintf("%d", *itemsets),
			"seed": fmt.Sprintf("%#x", *seed),
		}
		rows, err := experiments.TableIII(context.Background(), *filters, *itemsets, *seed, workers, obs)
		if err != nil {
			return config, nil, err
		}
		fmt.Println("Table III: impact of AP-specific padding on CPU engines")
		fmt.Printf("%-28s %10s %12s %10s %9s %9s\n",
			"CPU Engine", "6 Wide", "6 Wide Pad", "Overhead", "CacheHit", "Evict/Lk")
		out := make([]report.KernelRow, len(rows))
		for i, r := range rows {
			hit, evict := cacheColumns(r.HasCache, r.CacheHitRate, r.CacheEvictRate)
			fmt.Printf("%-28s %9.3fs %11.3fs %9.1f%% %9s %9s%s\n",
				r.Engine, r.PlainSec, r.PaddedSec, r.OverheadPct, hit, evict,
				degradedMark(r.Fallbacks))
			out[i] = report.KernelRow{
				Name: r.Engine, HasCache: r.HasCache,
				CacheHitRate: r.CacheHitRate, CacheEvictRate: r.CacheEvictRate,
				Extra: map[string]float64{
					"plain_sec":    r.PlainSec,
					"padded_sec":   r.PaddedSec,
					"overhead_pct": r.OverheadPct,
				},
			}
			if r.Fallbacks > 0 {
				out[i].Extra["fallbacks"] = float64(r.Fallbacks)
			}
		}
		return config, out, nil
	})
}

func cmdTable4(args []string) error {
	fs := flag.NewFlagSet("table4", flag.ExitOnError)
	samples := fs.Int("samples", 4000, "dataset size")
	seed := fs.Uint64("seed", 5, "seed")
	return runTable(fs, args, func(workers int, obs *experiments.Observer) (map[string]string, []report.KernelRow, error) {
		config := map[string]string{
			"samples": fmt.Sprintf("%d", *samples), "seed": fmt.Sprintf("%#x", *seed),
		}
		rows, err := experiments.TableIV(context.Background(), *samples, *seed, workers, obs)
		if err != nil {
			return config, nil, err
		}
		fmt.Println("Table IV: Random Forest classification throughput")
		fmt.Printf("%-34s %16s %10s %9s %9s\n", "Engine", "kClass/sec", "Relative", "CacheHit", "Evict/Lk")
		out := make([]report.KernelRow, len(rows))
		for i, r := range rows {
			hit, evict := cacheColumns(r.HasCache, r.CacheHitRate, r.CacheEvictRate)
			fmt.Printf("%-34s %16.1f %9.1fx %9s %9s%s\n", r.Engine, r.KClassPerSec, r.Relative, hit, evict,
				degradedMark(r.Fallbacks))
			tp := report.AggregateOf([]float64{r.KClassPerSec})
			out[i] = report.KernelRow{
				Name: r.Engine, Unit: "kClass/s", Throughput: &tp,
				HasCache: r.HasCache, CacheHitRate: r.CacheHitRate, CacheEvictRate: r.CacheEvictRate,
				Extra: map[string]float64{"relative": r.Relative},
			}
			if r.Fallbacks > 0 {
				out[i].Extra["fallbacks"] = float64(r.Fallbacks)
			}
		}
		return config, out, nil
	})
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
	cfg := buildFlags(fs)
	format := fs.String("format", "mnrl", "output format: mnrl or dot")
	out := fs.String("o", "", "output file (default stdout)")
	b, err := parseBench(fs, args)
	if err != nil {
		return err
	}
	a, _, err := b.Build(*cfg)
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
	cfg := buildFlags(fs)
	device := fs.String("device", "d480", "device model: d480 or reapr")
	b, err := parseBench(fs, args)
	if err != nil {
		return err
	}
	a, _, err := b.Build(*cfg)
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
