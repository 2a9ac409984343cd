// Package automatazoo is a from-scratch Go reproduction of "AutomataZoo: A
// Modern Automata Processing Benchmark Suite" (Wadden et al., IISWC 2018).
//
// The repository implements the complete software stack behind the paper:
// a homogeneous (ANML-style) automata model with counter elements, a
// VASim-equivalent active-set NFA simulation engine, a Hyperscan-proxy
// lazy-DFA engine, a PCRE-subset regex compiler, bit-level automata with
// 8-striding, the standard automata transformations (prefix-merge
// compression, widening), the 25 benchmarks of the paper's Table I across
// 13 application domains, and experiment harnesses that regenerate every
// table and figure in the paper's evaluation. A shared worker-pool layer
// (internal/parallel) fans independent automata subgraphs and experiment
// kernels across CPUs, and a segment-parallel scanning layer
// (internal/segment) splits long input streams across speculative
// workers — both with byte-identical output at every worker and segment
// count. Everything that observes, bounds or checkpoints a scan reaches
// the engines as one hook bundle (internal/hooks.Set through each
// engine's Attach; internal/segment.Hooks through the drivers), and every
// governed scan runs the one chunk protocol in internal/hooks. Speed is
// measured by one instrument, the repository benchmark under bench/ (its
// own module; see bench/README.md).
// ARCHITECTURE.md maps the packages and the data flow.
//
// Entry points:
//
//   - cmd/azoo — CLI for generating benchmarks and rerunning experiments
//   - internal/core — the suite registry (benchmarks + standard inputs)
//   - internal/experiments — Table I–V, Figure 1, and the Snort experiment
//   - examples/ — runnable programs built on the toolkit
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results versus the paper.
package automatazoo
