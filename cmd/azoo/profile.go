package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"automatazoo/internal/automata"
	"automatazoo/internal/core"
	"automatazoo/internal/sim"
	"automatazoo/internal/stats"
	"automatazoo/internal/telemetry"
)

// resolveBenchmark finds a benchmark by exact name, case-insensitive
// name, or unique case-insensitive substring — so `azoo profile snort`
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

// cmdProfile runs one benchmark under full instrumentation and prints a
// per-state activation heatmap with subgraph attribution — the suite's
// analogue of VASim's --profile mode.
func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	cfg := suiteFlags(fs)
	topK := fs.Int("top", 20, "hottest states to print")
	topSub := fs.Int("subgraphs", 10, "hottest subgraphs to print (0 disables)")
	tf := telemetryFlags(fs)
	b, err := parseBench(fs, args)
	if err != nil {
		return err
	}
	sess, err := tf.session()
	if err != nil {
		return err
	}
	// The profile command always keeps a registry: the frontier histogram
	// and run counters are part of its report even without -metrics.
	if sess.Registry == nil {
		sess.Registry = telemetry.NewRegistry()
	}
	sess.armWatchdog()
	h := sess.hooks(b.Name)

	// The attributed build carries the provenance map that turns the
	// heatmap's bare state indices into pattern names.
	a, segs, col, err := b.BuildAttributed(*cfg)
	if err != nil {
		return err
	}
	e := sim.New(a)
	prof := e.EnableProfile()
	e.Attach(h.EngineSet())
	// Per-segment scan latency feeds a histogram so the profile can report
	// tail quantiles, not just totals — segments are this workload's unit
	// of work (packets, classifications, reads).
	lat := sess.Registry.Histogram("profile.segment_nanos", telemetry.ExpBuckets(1<<10, 40))
	for _, seg := range segs {
		h.Progress.AddTotal(int64(len(seg)))
	}
	for _, seg := range segs {
		e.Reset()
		start := time.Now()
		_, err := e.RunChecked(seg)
		lat.Observe(time.Since(start).Nanoseconds())
		if err != nil {
			return sess.closeTruncated(err)
		}
	}
	h.Progress.Done()
	dyn := stats.DynamicFromRegistry(sess.Registry)
	_, comp := a.Components()

	fmt.Printf("%s (%s): %d states, %d subgraphs\n", b.Name, b.Domain, a.NumStates(), countSubgraphs(comp))
	fmt.Printf("symbols %d, reports %d (%.6f/sym), active set %.2f, enabled set %.2f\n",
		dyn.Symbols, dyn.Reports, dyn.ReportRate, dyn.ActiveSet, dyn.EnabledSet)
	fh := sess.Registry.Histogram("sim.frontier", nil)
	fmt.Printf("enabled frontier: mean %.2f, max %d (p50 %.0f, p90 %.0f, p99 %.0f)\n",
		fh.Mean(), fh.Max(), fh.Quantile(0.50), fh.Quantile(0.90), fh.Quantile(0.99))
	fmt.Printf("segment latency: p50 %s, p90 %s, p99 %s, max %s (%d segments)\n\n",
		nanosStr(lat.Quantile(0.50)), nanosStr(lat.Quantile(0.90)),
		nanosStr(lat.Quantile(0.99)), nanosStr(float64(lat.Max())), lat.Count())

	fmt.Printf("Top %d states by activations:\n", *topK)
	entries := prof.TopK(*topK, comp)
	prov := col.Provenance()
	for i := range entries {
		entries[i].Pattern = prov.Label(automata.StateID(entries[i].State))
	}
	if err := telemetry.WriteHeatmap(os.Stdout, entries, dyn.Symbols); err != nil {
		return err
	}
	if *topSub > 0 {
		fmt.Printf("\nTop %d subgraphs by activations:\n", *topSub)
		if err := telemetry.WriteSubgraphHeatmap(os.Stdout, prof.TopSubgraphs(*topSub, comp)); err != nil {
			return err
		}
	}
	return sess.Close()
}

// nanosStr renders a nanosecond quantity with a human-scale unit.
func nanosStr(ns float64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

func countSubgraphs(comp []int32) int {
	max := int32(-1)
	for _, c := range comp {
		if c > max {
			max = c
		}
	}
	return int(max + 1)
}
