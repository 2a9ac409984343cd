package experiments

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/core"
	"automatazoo/internal/prefilter"
	"automatazoo/internal/segment"
	"automatazoo/internal/telemetry"
)

// TestTableIParallelMatchesSequential: Table I rows contain no wall-clock
// measurements, so the parallel harness must reproduce the sequential
// harness exactly — rows and merged telemetry both.
func TestTableIParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite generation, twice")
	}
	cfg := core.Config{Scale: 0.004, InputBytes: 3000, Seed: 1}
	seqReg := telemetry.NewRegistry()
	seq, err := TableI(context.Background(), cfg, false, 1, 1, &Observer{Hooks: segment.Hooks{Registry: seqReg}})
	if err != nil {
		t.Fatal(err)
	}
	parReg := telemetry.NewRegistry()
	par, err := TableI(context.Background(), cfg, false, runtime.NumCPU(), 1, &Observer{Hooks: segment.Hooks{Registry: parReg}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel Table I rows differ from sequential")
	}
	if !reflect.DeepEqual(seqReg.Snapshot(), parReg.Snapshot()) {
		t.Fatal("merged parallel registry differs from sequential registry")
	}
}

// TestTableISegmentedMatchesSequential: segment-parallel input scanning
// must not perturb a single Table-I row — rows are identical whether each
// kernel's streams are scanned sequentially or split across segments.
// (The registries legitimately differ: segmented runs add segment.*
// counters and warmup work to sim.*, which is exactly the waste/exactness
// split the design promises.)
func TestTableISegmentedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite generation, twice")
	}
	cfg := core.Config{Scale: 0.004, InputBytes: 3000, Seed: 1}
	seq, err := TableI(context.Background(), cfg, false, runtime.NumCPU(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	seg, err := TableI(context.Background(), cfg, false, runtime.NumCPU(), 3, &Observer{Hooks: segment.Hooks{Registry: reg}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, seg) {
		t.Fatal("segmented Table I rows differ from sequential")
	}
	if reg.Counter("segment.segments").Value() == 0 {
		t.Fatal("segmented run published no segment.* accounting")
	}
}

// TestTableIPrefilterMatchesSequential: the engine factory is an
// execution strategy, not a semantics change — Table I rows computed with
// the two-stage literal prefilter behind every scan (`azoo table1 -engine
// prefilter`) must equal the plain-sim rows exactly. (Registries
// legitimately differ: the prefilter adds prefilter.* counters.)
func TestTableIPrefilterMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite generation, twice")
	}
	cfg := core.Config{Scale: 0.004, InputBytes: 3000, Seed: 1}
	seq, err := TableI(context.Background(), cfg, false, runtime.NumCPU(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	pf, err := TableI(context.Background(), cfg, false, runtime.NumCPU(), 0, &Observer{Hooks: segment.Hooks{
		Registry: reg,
		NewEngine: func(a *automata.Automaton) (segment.Engine, error) {
			return prefilter.New(a)
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, pf) {
		t.Fatal("prefilter Table I rows differ from sequential sim rows")
	}
}

// TestTableIIParallelMatchesSequential: training is deterministic per
// seed, so the three variants must produce identical rows under fan-out.
func TestTableIIParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("trains six forests")
	}
	seqReg := telemetry.NewRegistry()
	seq, err := TableII(context.Background(), 800, 7, 1, &Observer{Hooks: segment.Hooks{Registry: seqReg}})
	if err != nil {
		t.Fatal(err)
	}
	parReg := telemetry.NewRegistry()
	par, err := TableII(context.Background(), 800, 7, 3, &Observer{Hooks: segment.Hooks{Registry: parReg}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel Table II rows differ:\nseq %+v\npar %+v", seq, par)
	}
	if !reflect.DeepEqual(seqReg.Snapshot(), parReg.Snapshot()) {
		t.Fatal("merged parallel registry differs from sequential registry")
	}
	if parReg.Gauge("table2.states.A").Value() == 0 {
		t.Fatal("per-variant gauges missing after merge")
	}
}

// TestTableIIIParallelStructure: Table III rows carry wall-clock timings,
// so only the structure and telemetry sums are asserted under fan-out.
func TestTableIIIParallelStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("timed experiment")
	}
	reg := telemetry.NewRegistry()
	rows, err := TableIII(context.Background(), 60, 2000, 3, runtime.NumCPU(), &Observer{Hooks: segment.Hooks{Registry: reg}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	if rows[0].HasCache || !rows[1].HasCache {
		t.Fatalf("cache columns must sit on the DFA row: %+v", rows)
	}
	if rows[0].PlainSec <= 0 || rows[0].PaddedSec <= 0 || rows[1].PlainSec <= 0 || rows[1].PaddedSec <= 0 {
		t.Fatalf("non-positive timings: %+v", rows)
	}
	if reg.Counter("sim.symbols").Value() == 0 {
		t.Fatal("NFA kernels must publish into the merged registry")
	}
}

// TestTableIVParallelStructure exercises the Table IV fan-out (timings
// are machine-dependent; shape and normalization are not).
func TestTableIVParallelStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a forest and times engines")
	}
	rows, err := TableIV(context.Background(), 1000, 5, runtime.NumCPU(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows=%d", len(rows))
	}
	if rows[0].Relative != 1.0 || !rows[0].HasCache {
		t.Fatalf("Hyperscan row must anchor normalization: %+v", rows[0])
	}
	for _, r := range rows {
		if r.KClassPerSec <= 0 {
			t.Fatalf("non-positive rate: %+v", r)
		}
	}
}
