// Profile: run the Snort kernel under full instrumentation and print a
// per-state activation heatmap with subgraph attribution — the library
// API behind `azoo profile snort`. The same engine run also feeds a
// metrics registry (counters + the frontier-size histogram) and an NDJSON
// event trace, demonstrating all three faces of internal/telemetry.
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

	// Attach all three telemetry hooks: per-state profile, and — in one
	// hook bundle — a metrics registry and a sampled NDJSON trace.
	e := sim.New(a)
	prof := e.EnableProfile()
	reg := telemetry.NewRegistry()
	var traceBuf bytes.Buffer
	tracer := telemetry.NewNDJSON(&traceBuf)
	tracer.SampleEvery = 1000 // keep symbol/activate volume down
	e.Attach(hooks.Set{Registry: reg, Tracer: tracer})

	for _, seg := range segs {
		e.Reset()
		e.Run(seg)
	}
	if err := tracer.Flush(); err != nil {
		log.Fatal(err)
	}

	symbols := reg.Counter("sim.symbols").Value()
	fmt.Printf("%s: %d states, %d symbols, %d reports\n",
		bench.Name, a.NumStates(), symbols, reg.Counter("sim.reports").Value())
	h := reg.Histogram("sim.frontier", nil)
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
