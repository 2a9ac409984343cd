package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"automatazoo/internal/attr"
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
	col, err := explainRun(b, cfg, engine, workers, segments)
	if err != nil {
		t.Fatalf("explainRun(%s, j=%d, segments=%d): %v", engine, workers, segments, err)
	}
	var tb, jb bytes.Buffer
	if err := writeExplain(&tb, b.Name, engine, col, 10, false); err != nil {
		t.Fatal(err)
	}
	if err := writeExplain(&jb, b.Name, engine, col, 10, true); err != nil {
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
		col, err := explainRun(b, cfg, tc.engine, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		var attributed int64
		for _, r := range col.Fold() {
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
		col, err := explainRun(b, cfg, engine, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "== azoo explain Brill -engine %s -top 5 ==\n", engine)
		if err := writeExplain(&buf, b.Name, engine, col, 5, false); err != nil {
			t.Fatal(err)
		}
	}
	golden := filepath.Join("testdata", "explain_brill.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("explain output drifted from golden file:\n--- want\n%s--- got\n%s", want, buf.Bytes())
	}
}

// TestExplainTopUnattributedSkipped guards the TopOffender contract used
// by the experiment annotations: the unattributed bucket is never named
// as a kernel's top offender.
func TestExplainTopUnattributedSkipped(t *testing.T) {
	rows := []attr.Cost{{ID: 2, Name: attr.Unattributed, Cost: 9}, {ID: 0, Name: "sid:1", Cost: 1}}
	if got := attr.TopOffender(rows); got != "sid:1" {
		t.Fatalf("TopOffender=%q", got)
	}
}
