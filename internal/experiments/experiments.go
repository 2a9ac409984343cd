// Package experiments regenerates every table and figure in the paper's
// evaluation: Table I (suite statistics), Table II (Random Forest variant
// trade-offs), Table III (padding overhead on CPU engines), Table IV
// (Random Forest throughput across engines), Table V / Figure 1
// (profile-driven mesh parameter selection), and the Section-V Snort
// report-rate experiment. cmd/azoo and the root benchmarks are thin
// drivers over these functions.
//
// Each table's independent kernels fan out across a worker pool (see
// parallel.go); workers == 1 runs them inline in table order.
package experiments

import (
	"automatazoo/internal/mesh"
	"automatazoo/internal/segment"
	"automatazoo/internal/snort"
	"automatazoo/internal/telemetry"
)

// Observer carries the optional hook bundle through an experiment: the
// Registry the engines publish into, the Tracer receiving execution
// events, and the Spans collector recording each kernel's
// build/simulate/compress (etc.) wall-clock breakdown — the harness's own
// phases; no driver or engine below it records spans. Governor bounds
// the experiment: every kernel checks in at the experiments.kernel
// boundary before starting and every engine runs governed, so one budget
// trip stops the whole table. NewEngine selects the scan-engine
// implementation for every simulation the experiment runs (the `azoo
// table1 -engine` plumbing) — rows are identical for any exact engine, so
// it changes how the table is computed, never its contents. The zero
// value (and a nil *Observer) disables all of them.
type Observer struct {
	segment.Hooks
	Spans *telemetry.Spans
	// Progress, when non-nil, hands every kernel its own live heartbeat
	// tracker (named after the kernel). It shadows the bundle's single
	// tracker, which a multi-kernel experiment has no use for.
	Progress *telemetry.Progress
}

// sinks returns the observer's hook bundle, span collector and progress
// aggregator. A nil observer yields the zero bundle and nil collectors,
// all valid no-ops.
func (o *Observer) sinks() (segment.Hooks, *telemetry.Spans, *telemetry.Progress) {
	if o == nil {
		return segment.Hooks{}, nil, nil
	}
	return o.Hooks, o.Spans, o.Progress
}

// TableIIRow is one Random Forest variant's trade-off summary.
type TableIIRow struct {
	Variant    string
	Features   int
	MaxLeaves  int
	States     int
	Accuracy   float64
	SymbolsPer int     // input symbols per classification
	RuntimeRel float64 // symbols relative to variant B (the paper's 1.35x)
}

// TableIIIRow is one engine's padding-overhead measurement. For the DFA
// engine, HasCache is set and the cache columns describe its transition
// cache across both measured runs (plain + padded).
type TableIIIRow struct {
	Engine         string
	PlainSec       float64
	PaddedSec      float64
	OverheadPct    float64
	HasCache       bool
	CacheHitRate   float64 // fraction of transitions found interned
	CacheEvictRate float64 // evicted DFA states per transition lookup
	// Fallbacks counts components that degraded from DFA to NFA stepping
	// during the measurement (cache budget or thrash); non-zero rows are
	// annotated "[degraded]" in the rendered table.
	Fallbacks int
}

// TableIVRow is one engine/algorithm combination's Random Forest
// classification throughput.
type TableIVRow struct {
	Engine       string
	KClassPerSec float64
	Relative     float64 // normalized to the Hyperscan row
	// Cache columns, set on the Hyperscan (lazy DFA) row only.
	HasCache       bool
	CacheHitRate   float64
	CacheEvictRate float64
	// Fallbacks counts components that degraded from DFA to NFA stepping
	// during the measurement; non-zero rows are annotated "[degraded]".
	Fallbacks int
}

// TableVRow is one profile-selected mesh configuration.
type TableVRow struct {
	Kernel  mesh.Kernel
	D       int
	ChosenL int
	PaperL  int
	Curve   []mesh.ProfilePoint
}

// Fig1AndTableV runs the Section-X profiling methodology: for each kernel
// and scoring distance, sweep the filter length until fewer than one
// report per filter per million random DNA symbols, returning both the
// swept curves (Figure 1) and the chosen lengths (Table V).
func Fig1AndTableV(cfg mesh.ProfileConfig) ([]TableVRow, error) {
	var rows []TableVRow
	for _, kernel := range []mesh.Kernel{mesh.Hamming, mesh.Levenshtein} {
		for _, d := range []int{3, 5, 10} {
			paperL := mesh.PaperTableV[kernel][d]
			minL := paperL - 4
			if minL <= d {
				minL = d + 1
			}
			chosen, curve, err := mesh.SelectLength(kernel, d, minL, paperL+6, cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, TableVRow{
				Kernel: kernel, D: d, ChosenL: chosen, PaperL: paperL, Curve: curve,
			})
		}
	}
	return rows, nil
}

// SnortRates runs the Section-V rule-filtering experiment at the given
// scale and returns the three report-rate rows.
func SnortRates(scale float64, inputBytes int, seed uint64) ([]snort.RateResult, error) {
	gen := snort.DefaultGenConfig()
	gen.CleanRules = scaledInt(gen.CleanRules, scale)
	gen.ModifierRules = scaledInt(gen.ModifierRules, scale)
	gen.IsdataatRules = scaledInt(gen.IsdataatRules, scale)
	rules := snort.Generate(gen, seed)
	traffic := snort.Traffic(inputBytes, rules, seed)
	return snort.Experiment(rules, traffic)
}

func scaledInt(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}
