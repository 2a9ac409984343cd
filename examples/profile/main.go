// Profile: run the Snort kernel under full instrumentation and print a
// per-state activation heatmap with subgraph attribution — the library
// API behind `azoo explain snort -states 10`. The same engine run also
// feeds a frontier-size histogram from a metrics registry and an NDJSON
// event trace, demonstrating all three faces of internal/telemetry; the
// totals are the engine's own Stats.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"automatazoo/internal/core"
	"automatazoo/internal/hooks"
	"automatazoo/internal/sim"
	"automatazoo/internal/telemetry"
)

func main() {
	bench, err := core.ByName("Snort")
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.Config{Scale: 0.02, InputBytes: 50_000, Seed: 0xa20}
	a, segs, err := bench.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Attach all three telemetry hooks in one bundle: a registry's
	// frontier-size histogram, and as the tracer both the per-state profile
	// (a Tracer that counts activations) and a sampled NDJSON trace.
	e := sim.New(a)
	prof := telemetry.NewStateProfile(a.NumStates())
	h := telemetry.NewRegistry().Histogram("sim.frontier", telemetry.ExpBuckets(1, 16))
	var traceBuf bytes.Buffer
	tracer := telemetry.NewNDJSON(&traceBuf)
	tracer.SampleEvery = 1000 // keep symbol/activate volume down
	e.Attach(hooks.Set{Frontier: h, Tracer: tee{prof, tracer}})

	var total sim.Stats
	for _, seg := range segs {
		e.Reset()
		total = total.Add(e.Run(seg))
	}
	if err := tracer.Flush(); err != nil {
		log.Fatal(err)
	}

	symbols := total.Symbols
	fmt.Printf("%s: %d states, %d symbols, %d reports\n",
		bench.Name, a.NumStates(), symbols, total.Reports)
	fmt.Printf("enabled frontier: mean %.2f, max %d\n\n", h.Mean(), h.Max())

	// The heatmap: hottest states, attributed to their subgraphs (each
	// subgraph is one Snort rule's automaton).
	_, comp := a.Components()
	fmt.Println("Top 10 states by activations:")
	if err := telemetry.WriteHeatmap(os.Stdout, prof.TopK(10, comp), symbols); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nTop 5 subgraphs (rules) by activations:")
	if err := telemetry.WriteSubgraphHeatmap(os.Stdout, prof.TopSubgraphs(5, comp)); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ntrace: %d NDJSON events captured; first two:\n", tracer.Events())
	lines := bytes.SplitN(traceBuf.Bytes(), []byte("\n"), 3)
	for i := 0; i < 2 && i < len(lines); i++ {
		fmt.Printf("  %s\n", lines[i])
	}
}

// tee hands every engine event to both of its tracers: an engine carries
// one Tracer, so two sinks share it through a fan-out like this.
type tee [2]telemetry.Tracer

func (t tee) OnSymbol(off int64, b byte) {
	t[0].OnSymbol(off, b)
	t[1].OnSymbol(off, b)
}

func (t tee) OnActivate(off int64, s uint32) {
	t[0].OnActivate(off, s)
	t[1].OnActivate(off, s)
}

func (t tee) OnReport(off int64, s uint32, code int32) {
	t[0].OnReport(off, s, code)
	t[1].OnReport(off, s, code)
}

func (t tee) OnCacheEvent(off int64, comp int, k telemetry.CacheEventKind) {
	t[0].OnCacheEvent(off, comp, k)
	t[1].OnCacheEvent(off, comp, k)
}
