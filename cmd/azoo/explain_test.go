package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"automatazoo/internal/core"
	"automatazoo/internal/scan"
	"automatazoo/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// explainCfg is the small, fast configuration every explain test shares.
// Brill has ~100 patterns at this scale — large enough to exercise
// prefix-merged components, small enough for the full worker×segment
// matrix to run in seconds.
func explainCfg(t *testing.T) (core.Benchmark, core.Config) {
	t.Helper()
	b, err := core.ByName("Brill")
	if err != nil {
		t.Fatal(err)
	}
	return b, core.Config{Scale: 0.02, InputBytes: 50000, Seed: 42}
}

// renderExplain runs explainRun at (workers, segments) and renders both
// the text table and the JSON document.
func renderExplain(t *testing.T, b core.Benchmark, cfg core.Config, engine string, workers, segments int) (text, jsonOut []byte) {
	t.Helper()
	ex, err := explainRun(b, cfg, engine, workers, segments, false)
	if err != nil {
		t.Fatalf("explainRun(%s, j=%d, segments=%d): %v", engine, workers, segments, err)
	}
	var tb, jb bytes.Buffer
	if err := writeExplain(&tb, b.Name, engine, ex.col, 10, false); err != nil {
		t.Fatal(err)
	}
	if err := writeExplain(&jb, b.Name, engine, ex.col, 10, true); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), jb.Bytes()
}

// TestExplainByteIdenticalAcrossWorkersAndSegments is the determinism
// acceptance gate: for both engines, the rendered cost plan (text and
// JSON) must be byte-identical at every (-j, -segments) combination.
func TestExplainByteIdenticalAcrossWorkersAndSegments(t *testing.T) {
	b, cfg := explainCfg(t)
	for _, engine := range []string{"nfa", "dfa"} {
		refText, refJSON := renderExplain(t, b, cfg, engine, 1, 1)
		for _, j := range []int{1, 4} {
			for _, segs := range []int{1, 4} {
				if j == 1 && segs == 1 {
					continue
				}
				text, jsonOut := renderExplain(t, b, cfg, engine, j, segs)
				if !bytes.Equal(text, refText) {
					t.Errorf("%s text output diverges at j=%d segments=%d:\n--- j=1,s=1\n%s--- j=%d,s=%d\n%s",
						engine, j, segs, refText, j, segs, text)
				}
				if !bytes.Equal(jsonOut, refJSON) {
					t.Errorf("%s JSON output diverges at j=%d segments=%d", engine, j, segs)
				}
			}
		}
	}
}

// TestExplainReportIdentity checks the attribution identity: the sum of
// per-pattern attributed reports (including the unattributed bucket)
// equals the engine's total report count, for both engines. Reports fold
// exactly — unlike structural costs, nothing is double-counted.
func TestExplainReportIdentity(t *testing.T) {
	b, cfg := explainCfg(t)
	a, segs, _, err := b.BuildAttributed(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var nfaTotal int64
	e := sim.New(a)
	e.OnReport = func(sim.Report) { nfaTotal++ }
	for _, seg := range segs {
		e.Reset()
		e.Run(seg)
	}

	var dfaTotal int64
	newDFA, err := scan.Factory("dfa")
	if err != nil {
		t.Fatal(err)
	}
	de, err := newDFA(a)
	if err != nil {
		t.Fatal(err)
	}
	de.SetOnReport(func(sim.Report) { dfaTotal++ })
	for _, seg := range segs {
		de.Reset()
		if _, err := de.RunChecked(seg); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		engine string
		want   int64
	}{{"nfa", nfaTotal}, {"dfa", dfaTotal}} {
		if tc.want == 0 {
			t.Fatalf("%s: test premise broken — input produces no reports", tc.engine)
		}
		ex, err := explainRun(b, cfg, tc.engine, 4, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		var attributed int64
		for _, r := range ex.col.Fold() {
			attributed += r.Reports
		}
		if attributed != tc.want {
			t.Errorf("%s: attributed reports %d != engine total %d", tc.engine, attributed, tc.want)
		}
	}
}

// TestExplainGolden pins the exact rendered plan for one small kernel.
// Regenerate with `go test ./cmd/azoo/ -run TestExplainGolden -update`.
func TestExplainGolden(t *testing.T) {
	b, cfg := explainCfg(t)
	var buf bytes.Buffer
	for _, engine := range []string{"nfa", "dfa"} {
		ex, err := explainRun(b, cfg, engine, 1, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "== azoo explain Brill -engine %s -top 5 ==\n", engine)
		if err := writeExplain(&buf, b.Name, engine, ex.col, 5, false); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, filepath.Join("testdata", "explain_brill.golden"), buf.Bytes())
}

// TestExplainStatesGolden pins `azoo explain snort -states 5 -top 5` on a
// small Snort: the cost plan, then the heatmap of one traced scan. Both
// -j values must render it byte for byte: a traced scan stays on one
// whole-automaton engine. Regenerate with
// `go test ./cmd/azoo/ -run TestExplainStatesGolden -update`.
func TestExplainStatesGolden(t *testing.T) {
	b, err := core.ByName("Snort")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Scale: 0.01, InputBytes: 20000, Seed: 42}
	render := func(workers int) []byte {
		ex, err := explainRun(b, cfg, "nfa", workers, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := writeExplain(&buf, b.Name, "nfa", ex.col, 5, false); err != nil {
			t.Fatal(err)
		}
		if err := writeStates(&buf, b, ex, 5); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got := render(1)
	if j2 := render(2); !bytes.Equal(j2, got) {
		t.Errorf("-states output differs between -j 1 and -j 2:\n--- j=1\n%s--- j=2\n%s", got, j2)
	}
	checkGolden(t, filepath.Join("testdata", "explain_states_snort.golden"), got)
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s:\n--- want\n%s--- got\n%s", path, want, got)
	}
}
