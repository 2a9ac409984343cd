// Package catalog is the single source of truth for the repository
// benchmark: every workload, every azoo command line a workload runs,
// every end-to-end metric with its bound and every per-layer metric with
// the layer it measures and the end-to-end number it is expected to move.
//
// BENCHMARK.json at the repository root is generated from this table
// (azbench -write-manifest) and a test fails when the two drift. The
// package imports nothing from the program under test, so the driver that
// uses it keeps building whatever happens to the internal packages.
package catalog

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
)

// RunSeconds is how long one run of one workload measures.
const RunSeconds = 10

// TwinInput is the -input value of a stream case's twin: the smallest
// stream every kernel accepts (ClamAV rejects 0), so run − twin is the
// marginal cost of the stream bytes alone.
const TwinInput = 256

// Engine and parallelism of a case. Workers 0 means W = min(nproc, 4),
// resolved by the driver and recorded in its output.
type Case struct {
	Name     string  // unique within the workload; also the metric-detail key
	Cmd      string  // "run" or "table1"
	Kernel   string  // -bench value, empty for table1
	Engine   string  // nfa | dfa | prefilter
	Scale    float64 // -scale
	Input    int     // -input N of the measured run
	Workers  int     // -j; 0 = W
	Segments int     // -segments
	Hooked   bool    // attach registry, report, progress, watchdog, governor and checkpointer
	Regime   string  // which regime of the layer this case is in (free text, shown by -list)
}

// Streams is the number of kernels that consume -input bytes: for table1, 22
// of the 25 Table-I rows (the three Random Forest kernels classify a fixed
// test set).
func (c Case) Streams() int {
	if c.Cmd == "table1" {
		return 22
	}
	return 1
}

// Gross reports whether the case's stream rate is all its bytes over its
// whole wall time instead of the marginal rate against its twin. table1
// pays 2.4 s of set-up per process for a stream worth 1 s: the difference of
// two such runs is mostly their noise, and the whole table is what its user
// waits for.
func (c Case) Gross() bool { return c.Cmd == "table1" }

// Workload is a fixed list of cases and the reason it exists.
type Workload struct {
	Name  string
	Why   string
	Gates string // ROADMAP item(s) this workload is the gate for
	Cases []Case
}

// Metric describes one reported number. Bound is set for end-to-end
// metrics only; Layer and Moves for per-layer metrics only.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
	Layer  string
	Moves  string
	Count  bool // a count made by the program: must repeat exactly for a fixed seed
}

const (
	mib = 1 << 20
	kib = 1 << 10
)

func nfa(name, kernel string, scale float64, input int) Case {
	return Case{Name: name, Cmd: "run", Kernel: kernel, Engine: "nfa", Scale: scale, Input: input, Workers: 1, Segments: 1}
}

func (c Case) engine(e string) Case { c.Engine = e; return c }
func (c Case) regime(r string) Case { c.Regime = r; return c }
func (c Case) parallel() Case       { c.Workers, c.Segments = 0, 0; return c }
func (c Case) hooked() Case         { c.Hooked = true; return c }

// Workloads is the benchmark. Stream sizes are chosen so that one case takes
// 0.05-0.2 s on a 2-core shared machine and one pass over a workload (every
// case and every twin) about a second: RunSeconds then holds seven to ten
// alternating passes. The machines this runs on slow every process by
// 10-60% in spells of one to several seconds, and only the fastest of many
// short repetitions lands between the spells (bench/CALIBRATION.md compares
// this with three passes over cases five times as long). Where set-up is a
// large share of a case (ClamAV, YARA) the stream is sized so that run - twin
// is at least a third of the run. suite_table1 is the exception: one process
// costs 2.4 s before the first stream byte (three Random Forest trainings),
// so it runs its three passes and takes about 18 s.
var Workloads = []Workload{
	{
		Name:  "sparse_nfa",
		Why:   "signature kernels with 2-36 active states per symbol: start index, charset test and sparse frontier list do the work",
		Gates: "item 3 must not move it; item 2 (hook consolidation) must not slow it",
		Cases: []Case{
			nfa("snort", "Snort", 0.1, 512*kib),
			nfa("clamav", "ClamAV", 0.05, 768*kib),
			nfa("yara", "YARA", 0.1, 512*kib),
			nfa("yara_wide", "YARA Wide", 0.1, 1*mib),
			nfa("file_carving", "File Carving", 0.1, 1*mib),
			nfa("brill", "Brill", 0.1, 192*kib),
		},
	},
	{
		Name:  "dense_nfa",
		Why:   "200-6100 active states per symbol: the per-enabled-state frontier walk, counter resolve and report emission dominate",
		Gates: "item 3 (dense NFA core) must show here",
		Cases: []Case{
			nfa("hamming_22x5", "Hamming 22x5", 0.05, 6*kib),
			nfa("levenshtein_24x5", "Levenshtein 24x5", 0.05, 1280),
			nfa("levenshtein_37x10", "Levenshtein 37x10", 0.05, 512),
			nfa("seq_match_6w_6p_wc", "Seq. Match 6w 6p wC", 0.05, 4*kib).regime("counters"),
			nfa("seq_match_6w_10p", "Seq. Match 6w 10p", 0.05, 3*kib).regime("1 report/symbol"),
			nfa("protomata", "Protomata", 0.05, 2560),
			nfa("entity_resolution", "Entity Resolution", 0.05, 6*kib),
			nfa("crispr_casot", "CRISPR CasOT", 0.05, 8*kib),
			nfa("ap_prng_8", "AP PRNG 8-sided", 0.05, 32*kib).regime("25 reports/symbol"),
		},
	},
	{
		Name:  "dfa_cache",
		Why:   "the sim engine does nothing: DFA cache lookup, per-component stepping, construct, evict and fallback do everything; hit and thrash regimes pull the same layer in opposite directions",
		Gates: "any DFA change; seed fact: per-component stepping makes ClamAV ~200x slower than nfa",
		Cases: []Case{
			nfa("snort", "Snort", 0.05, 48*kib).engine("dfa").regime("hit"),
			nfa("yara_wide", "YARA Wide", 0.05, 48*kib).engine("dfa").regime("hit"),
			nfa("brill", "Brill", 0.05, 24*kib).engine("dfa").regime("hit"),
			nfa("crispr_casoffinder", "CRISPR CasOffinder", 0.05, 56*kib).engine("dfa").regime("hit"),
			nfa("file_carving", "File Carving", 0.05, 1*mib).engine("dfa").regime("hit"),
			nfa("hamming_18x3", "Hamming 18x3", 0.05, 16*kib).engine("dfa").regime("hit"),
			nfa("clamav", "ClamAV", 0.02, 12*kib).engine("dfa").regime("many components"),
			nfa("hamming_22x5", "Hamming 22x5", 0.05, 1024).engine("dfa").regime("thrash"),
		},
	},
	{
		Name:  "prefilter_lit",
		Why:   "Aho-Corasick stage plus confirm do the work on the four anchored kernels and the trie build dominates setup and RSS; two unanchored kernels show what the prefilter costs when it cannot help",
		Gates: "any acmatch/prefilter change; item 5 (reduction passes) via setup_s",
		Cases: []Case{
			nfa("snort", "Snort", 0.03, 1*mib).engine("prefilter").regime("anchored"),
			nfa("clamav", "ClamAV", 0.02, 4*mib).engine("prefilter").regime("anchored"),
			nfa("yara", "YARA", 0.03, 3*mib).engine("prefilter").regime("anchored"),
			nfa("yara_wide", "YARA Wide", 0.03, 2*mib).engine("prefilter").regime("anchored"),
			nfa("file_carving", "File Carving", 0.03, 1*mib).engine("prefilter").regime("residual only"),
			nfa("brill", "Brill", 0.03, 512*kib).engine("prefilter").regime("residual only"),
		},
	},
	{
		Name:  "parallel_scan",
		Why:   "the only workload where segment, partition and parallel do the work; the counter case uses the same layers where they cannot win",
		Gates: "item 4 (segment parallelism)",
		Cases: []Case{
			nfa("snort", "Snort", 0.05, 4*mib).parallel().regime("segment-parallel"),
			nfa("file_carving", "File Carving", 0.05, 4*mib).parallel().regime("segment-parallel"),
			nfa("clamav", "ClamAV", 0.05, 2*mib).parallel().regime("component-partition"),
			nfa("hamming_22x5", "Hamming 22x5", 0.05, 24*kib).parallel().regime("component-partition"),
			nfa("seq_match_6w_6p_wc", "Seq. Match 6w 6p wC", 0.05, 16*kib).parallel().regime("counters: never speculates"),
		},
	},
	{
		Name:  "hooked_ckpt",
		Why:   "the same scans with registry, ledger, progress, recorder, governor and checkpointer attached and real fsync+rename saves: the cost of looking and of crash safety",
		Gates: "item 2 (hook consolidation), item 7; ROADMAP 1d telemetry budget",
		Cases: []Case{
			nfa("snort", "Snort", 0.05, 2*mib).hooked(),
			nfa("clamav", "ClamAV", 0.03, 1*mib).hooked(),
			nfa("file_carving", "File Carving", 0.05, 1536*kib).hooked(),
			nfa("hamming_18x3", "Hamming 18x3", 0.05, 16*kib).hooked(),
			nfa("snort_dfa", "Snort", 0.05, 64*kib).engine("dfa").hooked(),
			nfa("clamav_prefilter", "ClamAV", 0.02, 2*mib).engine("prefilter").hooked(),
			nfa("snort_jw", "Snort", 0.05, 2*mib).parallel().hooked().regime("checkpointed -j W"),
		},
	},
	{
		Name:  "suite_table1",
		Why:   "the paper's headline artifact over all 25 kernels: loaders, regex compile, Builder, PrefixMerge, stats.Compute and RF training are most of the wall time",
		Gates: "item 5 (reduction passes); every kernel generator",
		Cases: []Case{
			{Name: "table1", Cmd: "table1", Engine: "nfa", Scale: 0.01, Input: 8 * kib, Workers: 1, Segments: 0},
		},
	},
}

// HookedFlags are appended to every hooked case; F is a file in a per-run
// temporary directory the driver creates and removes. The checkpoint
// interval is a quarter MiB so that the 1-3 MiB streams of the hooked cases
// save four to twelve generations each.
var HookedFlags = []string{
	"-metrics", "F.metrics.json", "-report", "F.report.json",
	"-progress", "1s", "-stall-after", "1h", "-timeout", "1h",
	"-checkpoint", "F.ckpt", "-checkpoint-interval", "262144",
}

// EndToEnd are the metrics every workload reports, measured black-box from
// the azoo command line. The format has one bound per metric, so each covers
// the noisiest workload. All five sit at the format's ceiling: on the shared
// 2-core machines this runs on, machine speed drifts by 20% over minutes, and
// ten runs of unchanged code spread by 15-29% of their median on a bad
// afternoon and by 2-3% on a quiet one (bench/CALIBRATION.md). A change that
// claims a gain uses the paired protocol in bench/README.md, not these.
var EndToEnd = []Metric{
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "stream_mbps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// EndToEndDefinition documents each end-to-end metric for -list and the README.
var EndToEndDefinition = map[string]string{
	"run_s":       "sum over cases of the wall time of the full command (fastest repetition): process start, generate, compile, engine build, scan, merge, emit, exit",
	"stream_mbps": "geometric mean over stream cases of (N-256)/(run - twin)/1e6, fastest repetition of each: the marginal cost of one input byte through the whole pipeline (table1: gross, 22*N/run)",
	"setup_s":     "sum over stream cases of the twin's wall time (fastest repetition): everything paid before the first stream byte (rule generation, compile, transform, engine/trie/partition construction)",
	"cpu_s":       "sum over cases of the child's user+system CPU time (fastest repetition): what the run costs when the cores are not free",
	"peak_rss_mb": "largest ru_maxrss of any measured run (twins and references excluded)",
}

// Kernels lists the 25 Table-I rows in table order; the per-kernel metrics
// are derived from it.
var Kernels = []string{
	"Snort", "ClamAV", "Protomata", "Brill",
	"Random Forest A", "Random Forest B", "Random Forest C",
	"Hamming 18x3", "Hamming 22x5", "Hamming 31x10",
	"Levenshtein 19x3", "Levenshtein 24x5", "Levenshtein 37x10",
	"Seq. Match 6w 6p", "Seq. Match 6w 6p wC", "Seq. Match 6w 10p", "Seq. Match 6w 10p wC",
	"Entity Resolution", "CRISPR CasOffinder", "CRISPR CasOT",
	"YARA", "YARA Wide", "File Carving", "AP PRNG 4-sided", "AP PRNG 8-sided",
}

var nonSlug = regexp.MustCompile(`[^a-z0-9]+`)

// Slug turns a kernel name into a metric-name component:
// "Seq. Match 6w 6p wC" -> "seq_match_6w_6p_wc".
func Slug(kernel string) string {
	return strings.Trim(nonSlug.ReplaceAllString(strings.ToLower(kernel), "_"), "_")
}

// PerLayer returns the per-layer metric table: two per kernel followed by
// the fixed per-package list.
func PerLayer() []Metric {
	var ms []Metric
	for _, k := range Kernels {
		s := Slug(k)
		ms = append(ms,
			Metric{Name: "kernel." + s + ".ns_per_symbol", Unit: "ns", Better: "lower", Layer: "core+sim",
				Moves: "stream_mbps on sparse_nfa/dense_nfa by class; run_s on suite_table1"},
			Metric{Name: "kernel." + s + ".enabled_per_symbol", Unit: "count", Better: "lower", Layer: "core+sim", Count: true,
				Moves: "explains ns_per_symbol: frontier size is the CPU-work proxy"},
		)
	}
	return append(ms, layerMetrics...)
}

func lm(name, unit, better, layer, moves string) Metric {
	return Metric{Name: name, Unit: unit, Better: better, Layer: layer, Moves: moves}
}

func cnt(name, unit, better, layer, moves string) Metric {
	return Metric{Name: name, Unit: unit, Better: better, Layer: layer, Moves: moves, Count: true}
}

var layerMetrics = []Metric{
	// Traced pipeline: self time per phase summed over the 25 kernels.
	lm("pipe.generate_s", "s", "lower", "traced pipeline", "setup_s everywhere"),
	lm("pipe.compile_s", "s", "lower", "traced pipeline", "setup_s everywhere"),
	lm("pipe.transform_s", "s", "lower", "traced pipeline", "setup_s, run_s on suite_table1"),
	lm("pipe.engine_build_s", "s", "lower", "traced pipeline", "setup_s everywhere"),
	lm("pipe.scan_s", "s", "lower", "traced pipeline", "run_s on suite_table1"),
	lm("pipe.merge_s", "s", "lower", "traced pipeline", "run_s on parallel_scan"),
	lm("pipe.emit_s", "s", "lower", "traced pipeline", "run_s on hooked_ckpt"),

	lm("compile.snort.us_per_pattern", "us", "lower", "snort+regex", "setup_s on sparse_nfa, prefilter_lit, suite_table1"),
	lm("compile.clamav.us_per_pattern", "us", "lower", "clamav+regex", "setup_s on sparse_nfa, prefilter_lit, suite_table1"),
	lm("compile.yara.us_per_pattern", "us", "lower", "yara+regex", "setup_s on sparse_nfa, prefilter_lit, suite_table1"),
	lm("compile.protomata.us_per_pattern", "us", "lower", "protomata+regex", "setup_s on dense_nfa, suite_table1"),
	lm("compile.brill.us_per_pattern", "us", "lower", "brill+regex", "setup_s on sparse_nfa, suite_table1"),

	lm("automata.build_ns_per_state", "ns", "lower", "automata", "setup_s on sparse_nfa"),
	cnt("automata.bytes_per_state", "B", "lower", "automata", "peak_rss_mb on sparse_nfa"),
	lm("charset.contains_ns", "ns", "lower", "charset", "stream_mbps on sparse_nfa and dense_nfa"),
	lm("charset.intern_ns", "ns", "lower", "charset", "setup_s on sparse_nfa"),

	lm("transform.prefixmerge_ns_per_state", "ns", "lower", "transform", "run_s, setup_s on suite_table1 only"),
	cnt("transform.prefixmerge_ratio", "ratio", "higher", "transform", "none (states removed / states): the pass's yield"),
	lm("transform.trim_ns_per_state", "ns", "lower", "transform", "none today (no run case trims)"),
	lm("transform.widen_ns_per_state", "ns", "lower", "transform", "none today"),
	lm("transform.fanlimit_ns_per_state", "ns", "lower", "transform", "none today"),
	lm("stats.compute_ns_per_state", "ns", "lower", "stats", "run_s, setup_s on suite_table1 only"),

	lm("sim.new_ns_per_state", "ns", "lower", "sim", "setup_s on sparse_nfa, dense_nfa"),
	lm("sim.step_ns.d0p1", "ns", "lower", "sim", "stream_mbps on sparse_nfa, parallel_scan"),
	lm("sim.step_ns.d1", "ns", "lower", "sim", "stream_mbps on sparse_nfa, parallel_scan"),
	lm("sim.step_ns.d10", "ns", "lower", "sim", "stream_mbps on dense_nfa"),
	lm("sim.step_ns.d50", "ns", "lower", "sim", "stream_mbps on dense_nfa"),
	lm("sim.idle_ns_per_symbol", "ns", "lower", "sim", "stream_mbps on sparse_nfa, parallel_scan"),
	lm("sim.counter_ns_per_pulse", "ns", "lower", "sim", "stream_mbps on dense_nfa (wC case)"),
	lm("sim.report_ns_per_report", "ns", "lower", "sim", "stream_mbps on dense_nfa (PRNG, 10p cases)"),

	lm("dfa.new_ns_per_state", "ns", "lower", "dfa", "setup_s on dfa_cache"),
	lm("dfa.hit_ns_per_symbol", "ns", "lower", "dfa", "stream_mbps on dfa_cache hit cases"),
	lm("dfa.ns_per_symbol_per_component", "ns", "lower", "dfa", "stream_mbps on dfa_cache ClamAV case"),
	lm("dfa.construct_us_per_dstate", "us", "lower", "dfa", "stream_mbps on dfa_cache thrash case"),
	cnt("dfa.hit_ratio.thrash", "ratio", "higher", "dfa", "stream_mbps on dfa_cache thrash case"),
	cnt("dfa.evictions_per_lookup.thrash", "ratio", "lower", "dfa", "stream_mbps on dfa_cache thrash case"),
	cnt("dfa.fallbacks.thrash", "count", "lower", "dfa", "stream_mbps on dfa_cache thrash case"),
	cnt("dfa.cache_bytes_per_dstate", "B", "lower", "dfa", "peak_rss_mb on dfa_cache"),

	lm("acmatch.compile_us_per_pattern", "us", "lower", "acmatch", "setup_s, peak_rss_mb on prefilter_lit"),
	lm("acmatch.scan_mbps", "MB/s", "higher", "acmatch", "stream_mbps on prefilter_lit anchored cases"),
	lm("prefilter.new_ms", "ms", "lower", "prefilter", "setup_s on prefilter_lit"),
	cnt("prefilter.anchored_ratio", "ratio", "higher", "prefilter", "stream_mbps on prefilter_lit"),
	cnt("prefilter.anchor_hits_per_kib", "count", "lower", "prefilter", "stream_mbps on prefilter_lit (confirm work)"),
	lm("prefilter.residual_ns_per_symbol", "ns", "lower", "prefilter", "stream_mbps on prefilter_lit residual-only cases"),
	lm("prefilter.speedup_vs_sim", "ratio", "higher", "prefilter", "prefilter_lit vs sparse_nfa on ClamAV (base: sim time)"),

	cnt("segment.commit_ratio", "ratio", "higher", "segment", "stream_mbps on parallel_scan"),
	cnt("segment.replay_bytes_ratio", "ratio", "lower", "segment", "stream_mbps on parallel_scan"),
	cnt("segment.warmup_bytes_ratio", "ratio", "lower", "segment", "stream_mbps on parallel_scan"),
	lm("segment.speedup", "ratio", "higher", "segment", "stream_mbps, run_s on parallel_scan (base: sequential time)"),
	lm("segment.overhead_w1", "ratio", "lower", "segment", "cpu_s on parallel_scan (base: sequential time)"),
	lm("partition.forworkers_ms", "ms", "lower", "partition", "setup_s on parallel_scan"),
	lm("partition.speedup", "ratio", "higher", "partition+parallel", "stream_mbps on parallel_scan ClamAV case (base: 1 worker)"),
	lm("partition.short_stream_slowdown", "ratio", "lower", "partition+parallel", "none end to end (RF at -j W costs 5 s per run: kept out of the CLI cases); base: 1 worker"),
	lm("partition.merge_ns_per_report", "ns", "lower", "partition", "run_s on parallel_scan"),

	lm("ckpt.encode_us", "us", "lower", "ckpt", "run_s on hooked_ckpt only"),
	lm("ckpt.decode_us", "us", "lower", "ckpt", "none (resume path)"),
	cnt("ckpt.bytes", "B", "lower", "ckpt", "run_s on hooked_ckpt only"),
	lm("ckpt.save_ms", "ms", "lower", "ckpt+atomicio", "run_s on hooked_ckpt only"),

	lm("telemetry.counter_add_ns", "ns", "lower", "telemetry", "run_s, stream_mbps on hooked_ckpt"),
	lm("telemetry.prometheus_render_us", "us", "lower", "telemetry", "none end to end (debug server only)"),
	lm("attr.ledger_activate_ns", "ns", "lower", "attr", "stream_mbps on hooked_ckpt"),
	lm("attr.fold_us", "us", "lower", "attr", "run_s on hooked_ckpt"),
	lm("guard.boundary_ns", "ns", "lower", "guard", "stream_mbps on hooked_ckpt"),
	lm("report.manifest_write_ms", "ms", "lower", "report+atomicio", "run_s on hooked_ckpt"),

	// Cost of looking, from CLI medians (driver) and the probe's two pipeline runs.
	lm("hooks.overhead_ratio.nfa", "ratio", "lower", "driver", "hooked run_s / bare run_s, same command: the <2% telemetry budget as a number"),
	lm("hooks.overhead_ratio.dfa", "ratio", "lower", "driver", "hooked run_s / bare run_s, same command"),
	lm("hooks.overhead_ratio.prefilter", "ratio", "lower", "driver", "hooked run_s / bare run_s, same command"),
	lm("trace.overhead_ratio", "ratio", "lower", "probe", "traced pipeline / untraced pipeline: what the probe's own spans cost"),
}

// HookCases are the bare commands whose hooked/bare wall-time ratio gives
// hooks.overhead_ratio.<engine>.
var HookCases = map[string]Case{
	"nfa":       nfa("hooks_nfa", "Snort", 0.05, 2*mib),
	"dfa":       nfa("hooks_dfa", "Snort", 0.05, 64*kib).engine("dfa"),
	"prefilter": nfa("hooks_prefilter", "ClamAV", 0.02, 2*mib).engine("prefilter"),
}

// Command is how the benchmark is run from the repository root: run.sh
// builds the driver with the Go build cache inside the checkout and runs it.
var Command = []string{"bash", "bench/run.sh"}

// Paths are the directories that hold the benchmark and nothing else.
var Paths = []string{"bench"}

// Limits of the manifest format.
const (
	MaxWorkloads = 8
	MaxEndToEnd  = 16
	MaxPerLayer  = 128
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// Validate checks the table against the manifest format's limits.
func Validate() error {
	seen := map[string]bool{}
	name := func(kind, n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("%s name %q: must match %s", kind, n, nameRE)
		}
		if seen[n] {
			return fmt.Errorf("%s name %q used twice", kind, n)
		}
		seen[n] = true
		return nil
	}
	if n := len(Workloads); n < 2 || n > MaxWorkloads {
		return fmt.Errorf("%d workloads, want 2..%d", n, MaxWorkloads)
	}
	for _, w := range Workloads {
		if err := name("workload", w.Name); err != nil {
			return err
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			return fmt.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
		cases := map[string]bool{}
		for _, c := range w.Cases {
			if cases[c.Name] {
				return fmt.Errorf("workload %s: case %q used twice", w.Name, c.Name)
			}
			cases[c.Name] = true
		}
	}
	metric := func(kind string, m Metric) error {
		if err := name(kind, m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("%s %s: unit %q", kind, m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("%s %s: better %q", kind, m.Name, m.Better)
		}
		return nil
	}
	if n := len(EndToEnd); n < 1 || n > MaxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics, want 1..%d", n, MaxEndToEnd)
	}
	hasSetup := false
	for _, m := range EndToEnd {
		if err := metric("end-to-end metric", m); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		return fmt.Errorf("no setup_s metric in s, lower is better")
	}
	pl := PerLayer()
	if n := len(pl); n < 1 || n > MaxPerLayer {
		return fmt.Errorf("%d per-layer metrics, want 1..%d", n, MaxPerLayer)
	}
	for _, m := range pl {
		if err := metric("per-layer metric", m); err != nil {
			return err
		}
	}
	return nil
}

// Manifest renders BENCHMARK.json from the table.
func Manifest() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: Command, Paths: Paths, RunSeconds: RunSeconds}
	for _, w := range Workloads {
		m.Workloads = append(m.Workloads, workload{w.Name, w.Why})
	}
	for _, x := range EndToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{x.Name, x.Unit, x.Better, x.Bound})
	}
	for _, x := range PerLayer() {
		m.PerLayer = append(m.PerLayer, layer{x.Name, x.Unit, x.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}
