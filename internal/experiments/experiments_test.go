package experiments

import (
	"context"
	"testing"

	"automatazoo/internal/core"
	"automatazoo/internal/dfa"
	"automatazoo/internal/mesh"
	"automatazoo/internal/randx"
	"automatazoo/internal/sim"
	"automatazoo/internal/spm"
)

func TestTableISmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite generation")
	}
	cfg := core.Config{Scale: 0.004, InputBytes: 3000, Seed: 1}
	rows, err := TableI(context.Background(), cfg, true, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 25 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.States == 0 || r.Symbols == 0 {
			t.Errorf("%s: empty row %+v", r.Name, r)
		}
		if r.CompressedStates > r.States {
			t.Errorf("%s: compression grew the automaton", r.Name)
		}
	}
}

func TestTableII(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three forests")
	}
	rows, err := TableII(context.Background(), 2500, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	a, b, c := rows[0], rows[1], rows[2]
	// The paper's qualitative relationships must hold.
	if a.RuntimeRel <= b.RuntimeRel {
		t.Errorf("A (more features) should cost more runtime: %v vs %v",
			a.RuntimeRel, b.RuntimeRel)
	}
	if c.States <= b.States {
		t.Errorf("C (more leaves) should need more states: %d vs %d",
			c.States, b.States)
	}
	if b.RuntimeRel != 1.0 {
		t.Errorf("B is the baseline: %v", b.RuntimeRel)
	}
	for _, r := range rows {
		if r.Accuracy < 0.6 {
			t.Errorf("variant %s accuracy %.3f implausibly low", r.Variant, r.Accuracy)
		}
	}
}

func TestTableIII(t *testing.T) {
	if testing.Short() {
		t.Skip("timed experiment")
	}
	rows, err := TableIII(context.Background(), 100, 4000, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	nfa, dfaRow := rows[0], rows[1]
	if nfa.PlainSec <= 0 || dfaRow.PlainSec <= 0 {
		t.Fatalf("non-positive timings: %+v", rows)
	}
	// The overheads are ratios of two ~20 ms wall-clock measurements and
	// swing by tens of percent between runs, so they are logged, and the
	// paper's qualitative result — padding hurts the NFA interpreter far
	// more than the DFA engine — is asserted on its mechanism instead, on
	// counters that repeat exactly.
	t.Logf("NFA padding overhead %.1f%% (plain %.4fs), DFA %.1f%% (plain %.4fs)",
		nfa.OverheadPct, nfa.PlainSec, dfaRow.OverheadPct, dfaRow.PlainSec)

	const filters, itemsets, seed = 100, 4000, 3
	rng := randx.New(seed)
	pats := make([]spm.Pattern, filters)
	for i := range pats {
		pats[i] = spm.RandomPattern(rng, 6)
	}
	input := spm.Input(pats, itemsets, 5, 41, seed)
	var enabledPerSymbol [2]float64
	for i, pad := range []int{0, 4} {
		a, err := spm.Benchmark(filters, 6, spm.Config{Padding: pad}, seed)
		if err != nil {
			t.Fatal(err)
		}
		// The interpreter's work is its enabled frontier, and padding
		// states join it.
		st := sim.New(a).Run(input)
		enabledPerSymbol[i] = float64(st.Enabled) / float64(st.Symbols)

		// The warmed DFA does one table lookup per live component per
		// symbol whatever the automaton's size, and constructs nothing.
		e, err := dfa.New(a)
		if err != nil {
			t.Fatal(err)
		}
		warm := e.Run(input)
		e.Reset()
		again := e.Run(input)
		comps, _ := a.Components()
		if misses := again.CacheMisses - warm.CacheMisses; misses != 0 || again.Fallbacks != 0 {
			t.Errorf("padding %d: warmed DFA took %d cache misses, %d fallbacks on its second pass", pad, misses, again.Fallbacks)
		}
		if lookups, limit := again.CacheHits-warm.CacheHits, int64(len(comps))*int64(len(input)); lookups > limit {
			t.Errorf("padding %d: %d DFA lookups on the second pass, more than one per component per symbol (%d)", pad, lookups, limit)
		}
	}
	if rise := (enabledPerSymbol[1]/enabledPerSymbol[0] - 1) * 100; rise < 5 {
		t.Errorf("padding raised the NFA's enabled states per symbol by only %.1f%% (%.2f -> %.2f)",
			rise, enabledPerSymbol[0], enabledPerSymbol[1])
	} else {
		t.Logf("enabled states per symbol: plain %.2f, padded %.2f (+%.1f%%)", enabledPerSymbol[0], enabledPerSymbol[1], rise)
	}
}

func TestTableIV(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a forest and times engines")
	}
	rows, err := TableIV(context.Background(), 2000, 5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows=%d", len(rows))
	}
	hs, native, mt, fpga := rows[0], rows[1], rows[2], rows[3]
	if hs.Relative != 1.0 {
		t.Fatalf("normalization broken: %+v", hs)
	}
	// Paper shape: native ≫ automata-on-CPU; FPGA fastest overall;
	// MT ≥ single-thread.
	if native.Relative < 5 {
		t.Errorf("native should dwarf automata inference on CPU: %v", native.Relative)
	}
	// On a single-core box MT degenerates to ~1x with scheduling overhead;
	// only flag a real regression.
	if mt.KClassPerSec < native.KClassPerSec*0.6 {
		t.Errorf("MT much slower than single-threaded: %v vs %v",
			mt.KClassPerSec, native.KClassPerSec)
	}
	if fpga.Relative <= native.Relative {
		t.Errorf("REAPR model should top the table: %v vs %v",
			fpga.Relative, native.Relative)
	}
}

func TestFig1AndTableVQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling sweep")
	}
	cfg := mesh.ProfileConfig{Filters: 6, InputSymbols: 120_000, Trials: 2, Seed: 0x5eed}
	rows, err := Fig1AndTableV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if len(r.Curve) == 0 {
			t.Fatalf("%v d=%d: empty curve", r.Kernel, r.D)
		}
		// The chosen length must land near the paper's value even with a
		// reduced profiling budget.
		if diff := r.ChosenL - r.PaperL; diff < -3 || diff > 3 {
			t.Errorf("%v d=%d chose l=%d, paper %d", r.Kernel, r.D, r.ChosenL, r.PaperL)
		}
		// The final point must be under the 1/M threshold (scaled).
		last := r.Curve[len(r.Curve)-1]
		if last.ReportsPerMillion >= 1 && r.ChosenL < r.PaperL+6 {
			t.Errorf("%v d=%d: sweep stopped above threshold: %+v", r.Kernel, r.D, last)
		}
	}
}

func TestSnortRates(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles three rulesets")
	}
	rows, err := SnortRates(0.05, 50_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	if !(rows[0].ReportRate > rows[1].ReportRate && rows[1].ReportRate > rows[2].ReportRate) {
		t.Fatalf("rates not monotonically dropping: %+v", rows)
	}
}
