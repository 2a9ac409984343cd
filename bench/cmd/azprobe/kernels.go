package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"automatazoo/bench/catalog"
	"automatazoo/internal/automata"
	"automatazoo/internal/brill"
	"automatazoo/internal/clamav"
	"automatazoo/internal/core"
	"automatazoo/internal/dfa"
	"automatazoo/internal/partition"
	"automatazoo/internal/prefilter"
	"automatazoo/internal/protomata"
	"automatazoo/internal/report"
	"automatazoo/internal/sim"
	"automatazoo/internal/snort"
	"automatazoo/internal/transform"
	"automatazoo/internal/yara"
)

// pipelineScale is the -scale of the traced pipeline and the per-kernel
// metrics. Random Forest costs the same at any scale below 0.0625 (its
// topology is fixed), so this trims only the signature kernels' set-up.
const pipelineScale = 0.02

// kernelInput is each kernel's stream size in the pipeline: fixed per
// kernel so its counts repeat exactly for a seed, and sized from the
// kernel's class so one scan takes 10-25 ms (the three Random Forest
// kernels classify their fixed 200-sample test set whatever this says).
var kernelInput = map[string]int{
	"Snort": 192 << 10, "ClamAV": 64 << 10, "Protomata": 512, "Brill": 48 << 10,
	"Random Forest A": 256, "Random Forest B": 256, "Random Forest C": 256,
	"Hamming 18x3": 4 << 10, "Hamming 22x5": 3 << 10, "Hamming 31x10": 1 << 10,
	"Levenshtein 19x3": 1 << 10, "Levenshtein 24x5": 512, "Levenshtein 37x10": 256,
	"Seq. Match 6w 6p": 2 << 10, "Seq. Match 6w 6p wC": 2 << 10,
	"Seq. Match 6w 10p": 2 << 10, "Seq. Match 6w 10p wC": 2 << 10,
	"Entity Resolution": 3 << 10, "CRISPR CasOffinder": 8 << 10, "CRISPR CasOT": 4 << 10,
	"YARA": 128 << 10, "YARA Wide": 384 << 10, "File Carving": 192 << 10,
	"AP PRNG 4-sided": 16 << 10, "AP PRNG 8-sided": 8 << 10,
}

// scanReps is how many times each kernel's scan is repeated after the traced pass
// for kernel.<slug>.ns_per_symbol (the median is reported).
const scanReps = 3

func scaled(n int, scale float64) int {
	if v := int(float64(n) * scale); v >= 1 {
		return v
	}
	return 1
}

// built is a kernel ready to scan.
type built struct {
	a        *automata.Automaton
	streams  [][]byte
	patterns int // rule count, for the loaders that have one
}

// loader splits a rule-based kernel's construction into the two phases the
// trace separates: generate (rule and stream generators) and compile
// (loader, regex, Builder.Build). It mirrors internal/core's recipe for the
// same kernel; TestLoadersMatchCore pins the two together.
type loader struct {
	generate func(cfg core.Config) (rules any, n int)
	compile  func(rules any) (*automata.Automaton, error)
	stream   func(cfg core.Config, rules any) ([]byte, error)
}

var loaders = map[string]loader{
	"Snort": {
		generate: func(cfg core.Config) (any, int) {
			gen := snort.DefaultGenConfig()
			gen.CleanRules = scaled(gen.CleanRules, cfg.Scale)
			gen.ModifierRules = scaled(gen.ModifierRules, cfg.Scale)
			gen.IsdataatRules = scaled(gen.IsdataatRules, cfg.Scale)
			rules := snort.Generate(gen, cfg.Seed)
			return rules, len(snort.Select(rules, snort.Filtered))
		},
		compile: func(r any) (*automata.Automaton, error) {
			a, _, err := snort.Compile(snort.Select(r.([]snort.Rule), snort.Filtered))
			return a, err
		},
		stream: func(cfg core.Config, r any) ([]byte, error) {
			return snort.Traffic(cfg.InputBytes, r.([]snort.Rule), cfg.Seed), nil
		},
	},
	"ClamAV": {
		generate: func(cfg core.Config) (any, int) {
			sigs := clamav.Generate(scaled(33171, cfg.Scale), cfg.Seed)
			return sigs, len(sigs)
		},
		compile: func(r any) (*automata.Automaton, error) {
			a, _, err := clamav.Compile(r.([]clamav.Signature))
			return a, err
		},
		stream: func(cfg core.Config, r any) ([]byte, error) {
			sigs := r.([]clamav.Signature)
			return clamav.DiskImage(cfg.InputBytes, []clamav.Signature{sigs[0], sigs[len(sigs)/2]}, cfg.Seed)
		},
	},
	"Protomata": {
		generate: func(cfg core.Config) (any, int) {
			pats := protomata.Generate(protomata.PaperPatternCount, cfg.Seed)
			return pats, len(pats)
		},
		compile: func(r any) (*automata.Automaton, error) {
			a, _, err := protomata.Compile(r.([]protomata.Pattern))
			return a, err
		},
		stream: func(cfg core.Config, r any) ([]byte, error) {
			return protomata.Proteome(cfg.InputBytes, r.([]protomata.Pattern)[:16], cfg.Seed)
		},
	},
	"Brill": {
		generate: func(cfg core.Config) (any, int) {
			rules := brill.Generate(scaled(5000, cfg.Scale), cfg.Seed)
			return rules, len(rules)
		},
		compile: func(r any) (*automata.Automaton, error) {
			a, _, err := brill.Compile(r.([]brill.Rule))
			return a, err
		},
		stream: func(cfg core.Config, r any) ([]byte, error) {
			rules := r.([]brill.Rule)
			return brill.Encode(brill.Corpus(cfg.InputBytes/8, rules, 97, cfg.Seed)), nil
		},
	},
	"YARA":      yaraLoader(23530, 0, 0),
	"YARA Wide": yaraLoader(2620, 1, 1),
}

func yaraLoader(paperRules int, wideFrac float64, seedShift uint64) loader {
	return loader{
		generate: func(cfg core.Config) (any, int) {
			rules := yara.Generate(yara.GenConfig{Rules: scaled(paperRules, cfg.Scale), WideFrac: wideFrac}, cfg.Seed+seedShift)
			return rules, len(rules)
		},
		compile: func(r any) (*automata.Automaton, error) {
			a, _, err := yara.Compile(r.([]yara.Rule))
			return a, err
		},
		stream: func(cfg core.Config, r any) ([]byte, error) {
			return yara.Corpus(cfg.InputBytes, r.([]yara.Rule)[:4], cfg.Seed)
		},
	}
}

// buildKernel constructs one kernel under generate/compile spans. Kernels
// without a separable rule generator go through core's one-call Build,
// which the trace books as compile (their stream generators are a random
// byte fill, negligible beside the automaton build).
func buildKernel(tr *tracer, name string, cfg core.Config) (built, error) {
	if l, ok := loaders[name]; ok {
		sp := tr.begin("generate")
		rules, n := l.generate(cfg)
		stream, err := l.stream(cfg, rules)
		sp.count("patterns", int64(n))
		sp.count("stream_bytes", int64(len(stream)))
		sp.end()
		if err != nil {
			return built{}, err
		}
		sp = tr.begin("compile")
		a, err := l.compile(rules)
		if err == nil {
			sp.count("states", int64(a.NumStates()))
			sp.count("edges", int64(a.NumEdges()))
		}
		sp.end()
		return built{a, [][]byte{stream}, n}, err
	}
	b, err := core.ByName(name)
	if err != nil {
		return built{}, err
	}
	tr.begin("generate").end() // zero-length: not separable for this kernel
	sp := tr.begin("compile")
	a, streams, err := b.Build(cfg)
	if err == nil {
		sp.count("states", int64(a.NumStates()))
		sp.count("edges", int64(a.NumEdges()))
		sp.count("streams", int64(len(streams)))
	}
	sp.end()
	return built{a: a, streams: streams}, err
}

// signatureKernel reports whether the prefilter engine is built for a
// kernel in the pipeline: the six kernels the prefilter_lit workload runs.
func signatureKernel(name string) bool {
	switch name {
	case "Snort", "ClamAV", "YARA", "YARA Wide", "File Carving", "Brill":
		return true
	}
	return false
}

// kernelRun is what one pass of the pipeline over one kernel produced.
type kernelRun struct {
	wallS   float64
	stats   sim.Stats
	engine  *sim.Engine
	streams [][]byte
}

// scanStreams runs every stream as a fresh stream on e and sums the stats.
func scanStreams(e *sim.Engine, streams [][]byte) sim.Stats {
	var sum sim.Stats
	for _, s := range streams {
		e.Reset()
		st := e.Run(s)
		sum.Symbols += st.Symbols
		sum.Enabled += st.Enabled
		sum.Active += st.Active
		sum.CounterPulses += st.CounterPulses
		sum.Reports += st.Reports
	}
	return sum
}

// pipelineKernel replays "azoo run" for one kernel in-process: generate,
// compile, transform, engine build, scan, merge, emit, with a span at each
// boundary when tr is non-nil. The same code runs untraced first; the
// difference between the two totals is the tracing overhead.
func (p *probe) pipelineKernel(tr *tracer, name string) (kernelRun, error) {
	cfg := core.Config{Scale: pipelineScale, InputBytes: p.n(kernelInput[name], 256), Seed: p.seed}
	if tr != nil {
		tr.kernel = catalog.Slug(name)
	}
	t0 := time.Now()
	root := tr.begin("kernel:" + catalog.Slug(name))
	defer root.end()

	k, err := buildKernel(tr, name, cfg)
	if err != nil {
		return kernelRun{}, err
	}

	sp := tr.begin("transform")
	merged, removed := transform.PrefixMerge(k.a)
	_, trimmed := transform.Trim(merged)
	sp.count("states_in", int64(k.a.NumStates()))
	sp.count("prefix_merged", int64(removed))
	sp.count("trimmed", int64(trimmed))
	sp.end()

	// The scan below uses the automaton as compiled, like "azoo run": no
	// run case applies a transform today.
	sp = tr.begin("engine_build")
	s1 := tr.begin("sim.New")
	eng := sim.New(k.a)
	s1.end()
	if k.a.NumCounters() == 0 {
		s1 = tr.begin("dfa.New")
		_, err = dfa.New(k.a)
		s1.end()
		if err != nil {
			sp.end()
			return kernelRun{}, err
		}
	}
	if signatureKernel(name) {
		s1 = tr.begin("prefilter.New")
		pf, err := prefilter.New(k.a)
		if err == nil {
			s1.count("anchored", int64(pf.Anchored()))
			s1.count("unanchored", int64(pf.Unanchored()))
		}
		s1.end()
		if err != nil {
			sp.end()
			return kernelRun{}, err
		}
	}
	s1 = tr.begin("partition.ForWorkers")
	plan := partition.ForWorkers(k.a, p.w)
	s1.count("slices", int64(plan.Passes()))
	s1.end()
	sp.end()

	sp = tr.begin("scan")
	var reports []sim.Report
	eng.OnReport = func(r sim.Report) {
		if len(reports) < 1<<20 {
			reports = append(reports, r)
		}
	}
	st := scanStreams(eng, k.streams)
	eng.OnReport = nil
	sp.count("symbols", st.Symbols)
	sp.count("enabled", st.Enabled)
	sp.count("active", st.Active)
	sp.count("reports", st.Reports)
	sp.count("counter_pulses", st.CounterPulses)
	sp.end()

	sp = tr.begin("merge")
	sort.Slice(reports, func(i, j int) bool {
		a, b := reports[i], reports[j]
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.State < b.State
	})
	sp.count("reports", int64(len(reports)))
	sp.end()

	sp = tr.begin("emit")
	fmt.Fprintf(io.Discard, "%s: %d states, %d symbols, %d reports (%.6f/sym), active set %.2f\n",
		name, k.a.NumStates(), st.Symbols, st.Reports, st.ReportRate(), st.ActiveAvg())
	m := report.Manifest{
		SchemaVersion: report.SchemaVersion, Label: "probe", Command: "run",
		Env: report.CaptureEnv(1),
		Kernels: []report.KernelRow{{
			Name: name, States: k.a.NumStates(), Symbols: st.Symbols, Reports: st.Reports,
			Extra: map[string]float64{"active_set": st.ActiveAvg(), "report_rate": st.ReportRate()},
		}},
	}
	err = m.WriteJSON(io.Discard)
	sp.end()
	if err != nil {
		return kernelRun{}, err
	}
	return kernelRun{time.Since(t0).Seconds(), st, eng, k.streams}, nil
}

// fixedTopology reports whether a kernel's automaton ignores -scale. The
// three Random Forest builds cost as much as the other 22 kernels together,
// so only the traced pass runs them and trace.overhead_ratio compares the
// two passes over the other 22.
func fixedTopology(name string) bool {
	return strings.HasPrefix(name, "Random Forest")
}

// pipelineLayer runs the pipeline over all 25 kernels traced and over the 22
// scalable ones untraced as well — the two passes of a kernel back to back,
// alternating which goes first so that neither side always pays the cold
// heap — folds the spans into pipe.*_s, and repeats each kernel's scan on
// the traced pass's engine for the per-kernel metrics. It returns the
// traced pass's spans.
func (p *probe) pipelineLayer() ([]span, error) {
	tr := newTracer()
	untraced, traced := 0.0, 0.0
	for i, name := range catalog.Kernels {
		bare := func() error {
			if fixedTopology(name) {
				return nil
			}
			kr, err := p.pipelineKernel(nil, name)
			untraced += kr.wallS
			return err
		}
		if i%2 == 0 {
			if err := bare(); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		kr, err := p.pipelineKernel(tr, name)
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", name, err)
		}
		if !fixedTopology(name) {
			traced += kr.wallS
		}
		// Between kernels, so outside every span: the pipeline's own scan
		// warmed the engine, these repetitions time it.
		var again sim.Stats
		scanS, reps := p.timeMedian(scanReps, func() { again = scanStreams(kr.engine, kr.streams) })
		if again != kr.stats {
			return nil, fmt.Errorf("%s: scan statistics changed between repetitions: %+v then %+v", name, kr.stats, again)
		}
		slug := catalog.Slug(name)
		p.emit("kernel."+slug+".ns_per_symbol", scanS*1e9/float64(kr.stats.Symbols), reps)
		p.emit("kernel."+slug+".enabled_per_symbol", kr.stats.EnabledAvg(), 0)
		if i%2 == 1 {
			if err := bare(); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	selfTimes(tr.spans)
	phase := map[string]float64{}
	for _, s := range tr.spans {
		// A phase is a direct child of a kernel root; its sub-spans
		// (sim.New, dfa.New, ...) belong to it.
		if s.Parent > 0 && tr.spans[s.Parent-1].Parent == 0 {
			phase[s.Name] += float64(s.EndNS-s.StartNS) / 1e9
		}
	}
	for _, name := range []string{"generate", "compile", "transform", "engine_build", "scan", "merge", "emit"} {
		p.emit("pipe."+name+"_s", phase[name], 1)
	}
	p.emit("trace.overhead_ratio", traced/untraced, 1)
	return tr.spans, nil
}
