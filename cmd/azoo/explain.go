package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/core"
	"automatazoo/internal/scan"
	"automatazoo/internal/sim"
	"automatazoo/internal/stats"
	"automatazoo/internal/telemetry"
)

// cmdExplain runs one benchmark's standard input under cost attribution
// and prints the per-pattern cost plan: which source patterns (regex
// rules, MNRL networks, benchmark components) are responsible for the
// run's bytes, frontier work, cache pressure, and reports. Every number
// is a deterministic engine-event total folded through the compile-time
// provenance map, so the output is byte-identical at any -j or -segments
// value (asserted by TestExplainByteIdenticalAcrossWorkersAndSegments).
//
// -states K (nfa, text only) follows the plan with the per-state
// activation heatmap — the suite's analogue of VASim's --profile mode:
// the run's dynamic line, its enabled-frontier quantiles, and the K
// hottest states (labelled with their source pattern) and subgraphs.
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	cfg := suiteFlags(fs)
	engine := engineFlag(fs, engineUsage, "nfa", "dfa", "prefilter")
	workers := workersFlag(fs)
	segments := segmentsFlag(fs)
	topK := fs.Int("top", 10, "cost rows to print (0 = every pattern)")
	asJSON := fs.Bool("json", false, "emit the cost rows as JSON instead of the text table")
	states := fs.Int("states", 0, "also print the K hottest states and subgraphs by activations (0 = off; nfa and the text table only; scans at -segments 1)")
	b, err := parseBench(fs, args)
	if err != nil {
		return err
	}
	name, err := engine()
	if err != nil {
		return err
	}
	if *states > 0 && (name != "nfa" || *asJSON) {
		return usageErrorf("explain: -states needs -engine nfa and the text table (no -json)")
	}
	ex, err := explainRun(b, *cfg, name, *workers, *segments, *states > 0)
	if err != nil {
		return err
	}
	if err := writeExplain(os.Stdout, b.Name, name, ex.col, *topK, *asJSON); err != nil {
		return err
	}
	if ex.prof == nil {
		return nil
	}
	return writeStates(os.Stdout, b, ex, *states)
}

// explanation is what explainRun measured: the filled cost collector and,
// when states were asked for, the activation profile, the registry
// holding the sim.frontier histogram, and the run's statistics.
type explanation struct {
	a     *automata.Automaton
	col   *attr.Collector
	prof  *telemetry.StateProfile
	reg   *telemetry.Registry
	stats sim.Stats
}

// explainRun builds the benchmark with its provenance map and scans its
// standard input through scan.Run — the layouts `azoo run` uses — with a
// cost ledger attached: the committed totals are the ones a production
// run would attribute. Prefilter engines charge anchored components'
// bytes at flush points and one work unit per matched literal byte (the
// chain work the nfa engine would have done); residual components
// attribute exactly as under nfa. With states set the scan also carries a
// StateProfile as its tracer and a registry, at one segment per stream:
// scan.Run then keeps the whole automaton on one engine, so the profile
// counts automaton state IDs and every byte of the input.
func explainRun(b core.Benchmark, cfg core.Config, engine string, workers, segments int, states bool) (explanation, error) {
	newEngine, err := scan.Factory(engine)
	if err != nil {
		return explanation{}, err
	}
	a, segs, col, err := b.BuildAttributed(cfg)
	if err != nil {
		return explanation{}, err
	}
	ex := explanation{a: a, col: col}
	h := stats.Hooks{Attribution: col, NewEngine: newEngine}
	if states {
		ex.prof, ex.reg = telemetry.NewStateProfile(a.NumStates()), telemetry.NewRegistry()
		h.Tracer, h.Registry, segments = ex.prof, ex.reg, 1
	}
	res, err := scan.Run(context.Background(), a, segs, scan.Spec{Hooks: h, Workers: workers, Segments: segments})
	ex.stats = res.Stats
	return ex, err
}

// explainDoc is the -json layout: a fixed-order struct, so encoding is
// deterministic for fixed contents.
type explainDoc struct {
	Benchmark string      `json:"benchmark"`
	Engine    string      `json:"engine"`
	Patterns  int         `json:"patterns"`
	Rows      []attr.Cost `json:"rows"`
}

// writeExplain renders the collector's folded top-K rows as the text
// table or JSON. Output depends only on the committed totals, never on
// timing, scheduling, or cache configuration.
func writeExplain(w io.Writer, bench, engine string, col *attr.Collector, topK int, asJSON bool) error {
	rows := attr.Top(col.Fold(), topK)
	nPat := col.Provenance().NumPatterns()
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(explainDoc{Benchmark: bench, Engine: engine, Patterns: nPat, Rows: rows})
	}
	if _, err := fmt.Fprintf(w, "%s [%s]: %d patterns, showing %d\n", bench, engine, nPat, len(rows)); err != nil {
		return err
	}
	return attr.WriteText(w, rows)
}

// writeStates renders the heatmap of an explainRun scan made with states
// on: the automaton line, the dynamic line, the enabled-frontier
// quantiles, and the k hottest states and subgraphs by activations.
func writeStates(w io.Writer, b core.Benchmark, ex explanation, k int) error {
	sizes, comp := ex.a.Components()
	st := ex.stats
	fh := ex.reg.Histogram("sim.frontier", nil)
	_, err := fmt.Fprintf(w, "%s (%s): %d states, %d subgraphs\n"+
		"symbols %d, reports %d (%.6f/sym), active set %.2f, enabled set %.2f\n"+
		"enabled frontier: mean %.2f, max %d (p50 %.0f, p90 %.0f, p99 %.0f)\n\n"+
		"Top %d states by activations:\n",
		b.Name, b.Domain, ex.a.NumStates(), len(sizes),
		st.Symbols, st.Reports, st.ReportRate(), st.ActiveAvg(), st.EnabledAvg(),
		fh.Mean(), fh.Max(), fh.Quantile(0.50), fh.Quantile(0.90), fh.Quantile(0.99), k)
	if err != nil {
		return err
	}
	entries := ex.prof.TopK(k, comp)
	prov := ex.col.Provenance()
	for i := range entries {
		entries[i].Pattern = prov.Label(automata.StateID(entries[i].State))
	}
	if err := telemetry.WriteHeatmap(w, entries, st.Symbols); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\nTop %d subgraphs by activations:\n", k); err != nil {
		return err
	}
	return telemetry.WriteSubgraphHeatmap(w, ex.prof.TopSubgraphs(k, comp))
}
