package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"automatazoo/internal/attr"
	"automatazoo/internal/core"
	"automatazoo/internal/scan"
	"automatazoo/internal/stats"
)

// cmdExplain runs one benchmark's standard input under cost attribution
// and prints the per-pattern cost plan: which source patterns (regex
// rules, MNRL networks, benchmark components) are responsible for the
// run's bytes, frontier work, cache pressure, and reports. Every number
// is a deterministic engine-event total folded through the compile-time
// provenance map, so the output is byte-identical at any -j or -segments
// value (asserted by TestExplainByteIdenticalAcrossWorkersAndSegments).
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	cfg := suiteFlags(fs)
	engine := engineFlag(fs, engineUsage, "nfa", "dfa", "prefilter")
	workers := workersFlag(fs)
	segments := segmentsFlag(fs)
	topK := fs.Int("top", 10, "cost rows to print (0 = every pattern)")
	asJSON := fs.Bool("json", false, "emit the cost rows as JSON instead of the text table")
	b, err := parseBench(fs, args)
	if err != nil {
		return err
	}
	name, err := engine()
	if err != nil {
		return err
	}
	col, err := explainRun(b, *cfg, name, *workers, *segments)
	if err != nil {
		return err
	}
	return writeExplain(os.Stdout, b.Name, name, col, *topK, *asJSON)
}

// explainRun builds the benchmark with its provenance map and scans its
// standard input through scan.Run — the layouts `azoo run` uses — with a
// cost ledger attached, returning the filled collector: the committed
// totals are the ones a production run would attribute. Prefilter
// engines charge anchored components' bytes at flush points and one work
// unit per matched literal byte (the chain work the nfa engine would have
// done); residual components attribute exactly as under nfa.
func explainRun(b core.Benchmark, cfg core.Config, engine string, workers, segments int) (*attr.Collector, error) {
	newEngine, err := scan.Factory(engine)
	if err != nil {
		return nil, err
	}
	a, segs, col, err := b.BuildAttributed(cfg)
	if err != nil {
		return nil, err
	}
	h := stats.Hooks{Attribution: col, NewEngine: newEngine}
	if _, err := scan.Run(context.Background(), a, segs, scan.Spec{Hooks: h, Workers: workers, Segments: segments}); err != nil {
		return nil, err
	}
	return col, nil
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
