// Package telemetry is the suite's zero-dependency observability layer:
// a metrics registry, an execution-event tracer, and per-state activity
// profiles, shared by the execution engines (internal/sim, internal/dfa,
// internal/prefilter) and surfaced by `azoo explain -states`, `-trace`,
// `-metrics`, and `-debug-addr`.
//
// The paper's entire evaluation is dynamic profiling — Table I's active
// set, Figure 1's report rates, Tables III–IV's CPU-engine comparisons —
// and this package is the instrumentation those measurements flow
// through. Engines nil-guard every hook, so disabled telemetry costs one
// predictable branch per site and zero allocations.
//
// # Metrics registry
//
// A Registry is a namespace of named atomic Counters, Gauges, and
// Histograms. The drivers publish engine work (segment.Hooks.Publish)
// under conventional prefixes; engines observe only sim.frontier
// (hooks.Set.Frontier):
//
//	sim.symbols              counter   input symbols consumed
//	sim.enabled              counter   summed enabled-frontier sizes
//	sim.active               counter   summed per-symbol matching states
//	sim.reports              counter   reports emitted
//	sim.counter_pulses       counter   AP-counter increment events
//	sim.frontier             histogram per-symbol enabled-frontier size
//	prefilter.anchor_hits    counter   anchor-literal occurrences
//	prefilter.residual_work  counter   the sim stage's enabled work
//	dfa.symbols              counter   input symbols consumed
//	dfa.reports              counter   reports emitted
//	dfa.cache_hits           counter   transitions found interned
//	dfa.cache_misses         counter   transitions subset-constructed
//	dfa.cache_evictions      counter   interned dstates abandoned on overflow
//	dfa.construct_nanos      counter   cumulative subset-construction time
//	dfa.fallback_bytes       counter   bytes stepped by degraded components
//	dfa.states               gauge     distinct interned DFA states
//	dfa.fallbacks            gauge     components running in NFA fallback
//	dfa.cache_bytes          gauge     modeled transition-cache size
//
// Registry.Snapshot serializes to deterministic JSON (map keys sort), and
// WritePrometheus renders the live registry as Prometheus text, which
// `azoo ... -debug-addr` serves at /metrics for long suite runs.
//
// # Trace event schema (NDJSON)
//
// The NDJSON tracer writes one JSON object per line. Every event carries
// "ev" (the event kind) and "off" (0-based input offset). Kinds:
//
//	{"ev":"symbol","off":N,"byte":B}            input symbol consumed; B in 0..255
//	{"ev":"activate","off":N,"state":S}         state S matched the symbol at N
//	{"ev":"report","off":N,"state":S,"code":C}  report with code C emitted
//	                                            (state is 0 for DFA reports,
//	                                            which do not retain NFA IDs)
//	{"ev":"cache","off":N,"comp":K,"kind":"miss"|"evict"}
//	                                            DFA transition-cache event in
//	                                            component K
//
// Field order is fixed as shown (events are hand-formatted, not
// reflected), so traces are byte-deterministic for a deterministic run —
// golden tests rely on this. "symbol" and "activate" events honor
// NDJSON.SampleEvery (record only offsets ≡ 0 mod SampleEvery); "report"
// and "cache" events are always recorded. Cache hits are metric-counted
// but never traced: they occur once per component per byte and would
// dominate any trace.
//
// A trace replays offline: filter by "ev" to rebuild the report stream,
// bucket "activate" by "state" to rebuild the heatmap, or join "cache"
// against offsets to see where lazy determinization spends its time.
//
// # Per-state profiles and heatmaps
//
// StateProfile is a Tracer that accumulates per-state activation counts;
// attach it to an engine like any tracer (hooks.Set{Tracer: prof}).
// TopK/TopSubgraphs rank the hot states with subgraph attribution via
// automata.Components, and WriteHeatmap renders the text heatmap that
// `azoo explain -states` prints after the cost plan.
package telemetry
