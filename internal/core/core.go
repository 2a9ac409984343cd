// Package core assembles the AutomataZoo suite itself: the paper's 24
// benchmarks across 13 application domains, each with a generator for its
// automaton and for its standard input stimulus. This registry is what
// cmd/azoo, the benches, and the examples consume.
//
// Every benchmark takes a Scale in (0, 1]: 1.0 is paper scale (e.g. 33k
// ClamAV signatures, 1,000 mesh filters); smaller scales generate
// proportionally fewer patterns for quick runs. Canonical fixed workloads
// (Protomata's 1,309 motifs, File Carving's 9 patterns) ignore Scale by
// design — the paper's point is precisely that they must not be inflated.
package core

import (
	"fmt"

	"automatazoo/internal/automata"
	"automatazoo/internal/brill"
	"automatazoo/internal/carving"
	"automatazoo/internal/clamav"
	"automatazoo/internal/crispr"
	"automatazoo/internal/entity"
	"automatazoo/internal/mesh"
	"automatazoo/internal/prng"
	"automatazoo/internal/protomata"
	"automatazoo/internal/randx"
	"automatazoo/internal/rf"
	"automatazoo/internal/snort"
	"automatazoo/internal/spm"
	"automatazoo/internal/yara"
)

// Config controls generation.
type Config struct {
	// Scale multiplies pattern counts (1.0 = paper scale).
	Scale float64
	// InputBytes sizes the standard input stimulus.
	InputBytes int
	// Seed drives all generators.
	Seed uint64
}

// Benchmark is one suite entry.
type Benchmark struct {
	Name   string
	Domain string
	Input  string // description of the standard input (Table I column)

	// Build generates the benchmark automaton and its standard input.
	// Segmented inputs (Random Forest classifications) are returned as
	// multiple segments, each a fresh stream.
	Build func(cfg Config) (*automata.Automaton, [][]byte, error)

	// BuildTagged, when non-nil, is Build additionally reporting every
	// pattern's builder state range to tag, feeding a cost-attribution
	// provenance map (internal/attr). Benchmarks whose loaders have no
	// per-pattern structure (mesh, PRNG, ...) leave it nil; callers fall
	// back to attr.FromComponents on the built automaton.
	BuildTagged func(cfg Config, tag func(name string, lo, hi int)) (*automata.Automaton, [][]byte, error)
}

// taggedBenchmark builds a suite entry whose generator supports pattern
// tagging: Build is the same generator with a nil tag.
func taggedBenchmark(name, domain, input string, build func(Config, func(string, int, int)) (*automata.Automaton, [][]byte, error)) Benchmark {
	return Benchmark{
		Name: name, Domain: domain, Input: input,
		Build:       func(cfg Config) (*automata.Automaton, [][]byte, error) { return build(cfg, nil) },
		BuildTagged: build,
	}
}

func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

// All returns the AutomataZoo benchmarks in Table I order — 25 rows (the
// paper's text says "24 benchmarks", but its Table I lists 25 rows; this
// registry reproduces the table).
func All() []Benchmark {
	return []Benchmark{
		taggedBenchmark("Snort", "Network Intrusion Detection", "PCAP file",
			func(cfg Config, tag func(string, int, int)) (*automata.Automaton, [][]byte, error) {
				gen := snort.DefaultGenConfig()
				gen.CleanRules = scaled(gen.CleanRules, cfg.Scale)
				gen.ModifierRules = scaled(gen.ModifierRules, cfg.Scale)
				gen.IsdataatRules = scaled(gen.IsdataatRules, cfg.Scale)
				rules := snort.Generate(gen, cfg.Seed)
				benchRules := snort.Select(rules, snort.Filtered)
				a, _, err := snort.CompileTagged(benchRules, tag)
				if err != nil {
					return nil, nil, err
				}
				return a, [][]byte{snort.Traffic(cfg.InputBytes, rules, cfg.Seed)}, nil
			}),
		taggedBenchmark("ClamAV", "Virus Detection", "Disk image",
			func(cfg Config, tag func(string, int, int)) (*automata.Automaton, [][]byte, error) {
				sigs := clamav.Generate(scaled(33171, cfg.Scale), cfg.Seed)
				a, _, err := clamav.CompileTagged(sigs, tag)
				if err != nil {
					return nil, nil, err
				}
				embed := []clamav.Signature{sigs[0], sigs[len(sigs)/2]}
				img, err := clamav.DiskImage(cfg.InputBytes, embed, cfg.Seed)
				if err != nil {
					return nil, nil, err
				}
				return a, [][]byte{img}, nil
			}),
		taggedBenchmark("Protomata", "Motif Search", "Uniprot Database",
			func(cfg Config, tag func(string, int, int)) (*automata.Automaton, [][]byte, error) {
				// Canonical workload: always the full 1,309 patterns.
				pats := protomata.Generate(protomata.PaperPatternCount, cfg.Seed)
				a, _, err := protomata.CompileTagged(pats, tag)
				if err != nil {
					return nil, nil, err
				}
				db, err := protomata.Proteome(cfg.InputBytes, pats[:16], cfg.Seed)
				if err != nil {
					return nil, nil, err
				}
				return a, [][]byte{db}, nil
			}),
		taggedBenchmark("Brill", "Part of Speech Tagging", "Brown Corpus",
			func(cfg Config, tag func(string, int, int)) (*automata.Automaton, [][]byte, error) {
				rules := brill.Generate(scaled(5000, cfg.Scale), cfg.Seed)
				a, _, err := brill.CompileTagged(rules, tag)
				if err != nil {
					return nil, nil, err
				}
				toks := brill.Corpus(cfg.InputBytes/8, rules, 97, cfg.Seed)
				return a, [][]byte{brill.Encode(toks)}, nil
			}),
		rfBenchmark("Random Forest A", rf.VariantA),
		rfBenchmark("Random Forest B", rf.VariantB),
		rfBenchmark("Random Forest C", rf.VariantC),
		meshBenchmark("Hamming 18x3", mesh.Hamming, 18, 3),
		meshBenchmark("Hamming 22x5", mesh.Hamming, 22, 5),
		meshBenchmark("Hamming 31x10", mesh.Hamming, 31, 10),
		meshBenchmark("Levenshtein 19x3", mesh.Levenshtein, 19, 3),
		meshBenchmark("Levenshtein 24x5", mesh.Levenshtein, 24, 5),
		meshBenchmark("Levenshtein 37x10", mesh.Levenshtein, 37, 10),
		spmBenchmark("Seq. Match 6w 6p", spm.Config{}),
		spmBenchmark("Seq. Match 6w 6p wC", spm.Config{WithCounter: true, SupportThreshold: 16}),
		spmBenchmark("Seq. Match 6w 10p", spm.Config{Padding: 4}),
		spmBenchmark("Seq. Match 6w 10p wC", spm.Config{Padding: 4, WithCounter: true, SupportThreshold: 16}),
		{
			Name: "Entity Resolution", Domain: "Duplicate entry identification", Input: "100k names",
			Build: func(cfg Config) (*automata.Automaton, [][]byte, error) {
				names := entity.GenerateNames(scaled(10000, cfg.Scale), cfg.Seed)
				a, err := entity.Benchmark(names)
				if err != nil {
					return nil, nil, err
				}
				return a, [][]byte{entity.Stream(names, cfg.InputBytes, cfg.Seed)}, nil
			},
		},
		crisprBenchmark("CRISPR CasOffinder", crispr.CasOFFinder),
		crisprBenchmark("CRISPR CasOT", crispr.CasOT),
		taggedBenchmark("YARA", "Malware pattern search", "Malware files",
			func(cfg Config, tag func(string, int, int)) (*automata.Automaton, [][]byte, error) {
				rules := yara.Generate(yara.GenConfig{Rules: scaled(23530, cfg.Scale)}, cfg.Seed)
				a, _, err := yara.CompileTagged(rules, tag)
				if err != nil {
					return nil, nil, err
				}
				corpus, err := yara.Corpus(cfg.InputBytes, rules[:4], cfg.Seed)
				if err != nil {
					return nil, nil, err
				}
				return a, [][]byte{corpus}, nil
			}),
		taggedBenchmark("YARA Wide", "Malware pattern search", "Malware files",
			func(cfg Config, tag func(string, int, int)) (*automata.Automaton, [][]byte, error) {
				rules := yara.Generate(yara.GenConfig{Rules: scaled(2620, cfg.Scale), WideFrac: 1}, cfg.Seed+1)
				a, _, err := yara.CompileTagged(rules, tag)
				if err != nil {
					return nil, nil, err
				}
				corpus, err := yara.Corpus(cfg.InputBytes, rules[:4], cfg.Seed)
				if err != nil {
					return nil, nil, err
				}
				return a, [][]byte{corpus}, nil
			}),
		taggedBenchmark("File Carving", "File metadata search", "Multi-media files",
			func(cfg Config, tag func(string, int, int)) (*automata.Automaton, [][]byte, error) {
				// Canonical workload: the fixed nine-pattern set.
				a, err := carving.BuildTagged(tag)
				if err != nil {
					return nil, nil, err
				}
				return a, [][]byte{carving.Input(cfg.InputBytes, cfg.Seed)}, nil
			}),
		prngBenchmark("AP PRNG 4-sided", 4),
		prngBenchmark("AP PRNG 8-sided", 8),
	}
}

// ByName returns the benchmark with the given name.
func ByName(name string) (Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("core: unknown benchmark %q", name)
}

func rfBenchmark(name string, v rf.Variant) Benchmark {
	return Benchmark{
		Name: name, Domain: "Machine Learning", Input: "Custom",
		Build: func(cfg Config) (*automata.Automaton, [][]byte, error) {
			// The model itself is paper-shaped; Scale trims only the
			// training-set size (accuracy, not topology, depends on it).
			n := scaled(4000, cfg.Scale*4) // at least 1000 samples
			if n < 1000 {
				n = 1000
			}
			ds := rf.GenerateDataset(n, cfg.Seed)
			train, test := ds.Split(0.8)
			m, err := rf.Train(train, v, cfg.Seed)
			if err != nil {
				return nil, nil, err
			}
			a, enc, err := m.BuildAutomaton()
			if err != nil {
				return nil, nil, err
			}
			segs := make([][]byte, 0, len(test.Samples))
			for _, s := range test.Samples {
				segs = append(segs, enc.Encode(m.FM.Quantize(s.Pixels)))
			}
			return a, segs, nil
		},
	}
}

func meshBenchmark(name string, k mesh.Kernel, l, d int) Benchmark {
	return Benchmark{
		Name: name, Domain: "String Similarity", Input: "Random DNA",
		Build: func(cfg Config) (*automata.Automaton, [][]byte, error) {
			a, err := mesh.Benchmark(k, scaled(1000, cfg.Scale), l, d, cfg.Seed)
			if err != nil {
				return nil, nil, err
			}
			rng := randx.New(cfg.Seed + 7)
			return a, [][]byte{mesh.RandomDNA(rng, cfg.InputBytes)}, nil
		},
	}
}

func spmBenchmark(name string, sc spm.Config) Benchmark {
	return Benchmark{
		Name: name, Domain: "Ordered Pattern Counting", Input: "Custom",
		Build: func(cfg Config) (*automata.Automaton, [][]byte, error) {
			n := scaled(1719, cfg.Scale)
			rng := randx.New(cfg.Seed)
			pats := make([]spm.Pattern, n)
			for i := range pats {
				pats[i] = spm.RandomPattern(rng, 6)
			}
			a, err := spm.Benchmark(n, 6, sc, cfg.Seed)
			if err != nil {
				return nil, nil, err
			}
			in := spm.Input(pats, cfg.InputBytes/4, 5, 37, cfg.Seed)
			return a, [][]byte{in}, nil
		},
	}
}

func crisprBenchmark(name string, style crispr.Style) Benchmark {
	return taggedBenchmark(name, "DNA pattern search", "DNA",
		func(cfg Config, tag func(string, int, int)) (*automata.Automaton, [][]byte, error) {
			n := scaled(2000, cfg.Scale)
			rng := randx.New(cfg.Seed)
			guides := make([]crispr.Guide, n)
			for i := range guides {
				guides[i] = crispr.RandomGuide(rng)
			}
			b := automata.NewBuilder()
			for i, g := range guides {
				lo := b.NumStates()
				if err := crispr.BuildFilter(b, g, style, int32(i)); err != nil {
					return nil, nil, err
				}
				if tag != nil {
					tag(fmt.Sprintf("guide-%d", i), lo, b.NumStates())
				}
			}
			a, err := b.Build()
			if err != nil {
				return nil, nil, err
			}
			nPlant := len(guides)
			if nPlant > 32 {
				nPlant = 32
			}
			return a, [][]byte{crispr.Input(guides[:nPlant], cfg.InputBytes, cfg.Seed)}, nil
		})
}

func prngBenchmark(name string, k int) Benchmark {
	return Benchmark{
		Name: name, Domain: "Pseudo-random number generation", Input: "Pseudo-random bytes",
		Build: func(cfg Config) (*automata.Automaton, [][]byte, error) {
			a, err := prng.Benchmark(scaled(1000, cfg.Scale), k, cfg.Seed)
			if err != nil {
				return nil, nil, err
			}
			rng := randx.New(cfg.Seed + 3)
			return a, [][]byte{rng.Bytes(cfg.InputBytes)}, nil
		},
	}
}
