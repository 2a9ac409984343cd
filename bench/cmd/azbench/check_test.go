package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"automatazoo/bench/catalog"
)

const (
	nfaOut = "Snort: 6457 states, 1048576 symbols, 6063 reports (0.005782/sym), active set 2.53\n"
	dfaOut = "Snort: 6457 states, 1048576 symbols, 6063 reports, 681 DFA states, 0 fallbacks\ntransition cache: 99.99% hit rate, 0.0000 evictions/lookup\n"
)

func TestCheckOutput(t *testing.T) {
	nfaCase := catalog.Case{Cmd: "run", Engine: "nfa"}
	dfaCase := catalog.Case{Cmd: "run", Engine: "dfa"}
	pfCase := catalog.Case{Cmd: "run", Engine: "prefilter", Hooked: true}

	if err := checkOutput(nfaCase, []byte(nfaOut), []byte(nfaOut)); err != nil {
		t.Errorf("identical nfa output rejected: %v", err)
	}
	if err := checkOutput(pfCase, []byte(nfaOut), []byte(nfaOut)); err != nil {
		t.Errorf("identical prefilter output rejected: %v", err)
	}
	if err := checkOutput(dfaCase, []byte(dfaOut), []byte(nfaOut)); err != nil {
		t.Errorf("dfa output with the reference's counts rejected: %v", err)
	}

	// Planted mismatches: one report more, one symbol fewer, a changed
	// active-set digit, a truncated line.
	for name, got := range map[string]string{
		"report count":  strings.Replace(nfaOut, "6063 reports", "6064 reports", 1),
		"active set":    strings.Replace(nfaOut, "2.53", "2.54", 1),
		"truncated":     nfaOut[:40],
		"empty":         "",
		"trailing line": nfaOut + "extra\n",
	} {
		if err := checkOutput(nfaCase, []byte(got), []byte(nfaOut)); err == nil {
			t.Errorf("nfa: planted %s mismatch accepted", name)
		}
	}
	for name, got := range map[string]string{
		"report count": strings.Replace(dfaOut, "6063 reports", "6062 reports", 1),
		"symbol count": strings.Replace(dfaOut, "1048576 symbols", "1048575 symbols", 1),
		"garbage":      "panic: boom\n",
	} {
		if err := checkOutput(dfaCase, []byte(got), []byte(nfaOut)); err == nil {
			t.Errorf("dfa: planted %s mismatch accepted", name)
		}
	}
	// DFA state counts are interning history, not part of the contract.
	if err := checkOutput(dfaCase, []byte(strings.Replace(dfaOut, "681 DFA", "700 DFA", 1)), []byte(nfaOut)); err != nil {
		t.Errorf("dfa: differing DFA state count rejected: %v", err)
	}
}

func TestCheckTable1(t *testing.T) {
	c := catalog.Case{Cmd: "table1"}
	table := "Table I (scale 0.010, input 2048 bytes)\nBenchmark ...\n" + strings.Repeat("row\n", 25)
	if err := checkOutput(c, []byte(table), []byte(table)); err != nil {
		t.Errorf("25 identical rows rejected: %v", err)
	}
	short := "Table I (scale 0.010, input 2048 bytes)\nBenchmark ...\n" + strings.Repeat("row\n", 24)
	if err := checkOutput(c, []byte(short), []byte(short)); err == nil {
		t.Error("24 rows accepted")
	}
	other := strings.Replace(table, "row\n", "r0w\n", 1)
	if err := checkOutput(c, []byte(other), []byte(table)); err == nil {
		t.Error("a row that changed between repetitions accepted")
	}
}

func TestCheckHookedArtifacts(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkHookedArtifacts(dir); err == nil {
		t.Error("missing report and metrics accepted")
	}
	write("F.report.json", `{"schema_version":1,"kernels":[]}`)
	write("F.metrics.json", `{"counters":{}}`)
	if err := checkHookedArtifacts(dir); err != nil {
		t.Errorf("complete artifacts rejected: %v", err)
	}
	write("F.ckpt.prev", "AZCK")
	if err := checkHookedArtifacts(dir); err == nil {
		t.Error("a checkpoint generation left behind was accepted")
	}
	os.Remove(filepath.Join(dir, "F.ckpt.prev"))
	write("F.metrics.json", `{"counters":`)
	if err := checkHookedArtifacts(dir); err == nil {
		t.Error("torn metrics file accepted")
	}
}

// fakeAzoo writes a shell script standing in for azoo, so the driver's
// bookkeeping can be tested without building the program.
func fakeAzoo(t *testing.T, script string) *runner {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "azoo")
	if err := os.WriteFile(bin, []byte("#!/bin/sh\n"+script), 0o755); err != nil {
		t.Fatal(err)
	}
	return &runner{azoo: bin, tmp: dir, seed: 1, workers: 2}
}

var fakeWorkload = catalog.Workload{Name: "fake", Cases: []catalog.Case{
	{Name: "par", Cmd: "run", Kernel: "K", Engine: "nfa", Scale: 0.05, Input: 4096, Workers: 0, Segments: 0},
}}

func TestHealthyWorkloadHasNoFailures(t *testing.T) {
	r := fakeAzoo(t, `echo "K: 1 states, 10 symbols, 2 reports (0.2/sym), active set 1.00"`+"\n")
	res := runWorkload(r, fakeWorkload, 0, false)
	// 1 reference + 3 passes of (run, twin). The fake costs the same at any
	// -input, so its marginal rate may or may not exist; only the
	// invocations are asserted here.
	if res.Reps != minReps || res.Attempted < 7 {
		t.Fatalf("reps %d, attempted %d; want %d passes and 7 invocations", res.Reps, res.Attempted, minReps)
	}
	for _, f := range res.Failures {
		if !strings.Contains(f, "no marginal rate") {
			t.Errorf("healthy fake failed: %s", f)
		}
	}
}

func TestPlantedMismatchRaisesFailRatio(t *testing.T) {
	// The parallel run prints one report more than the sequential reference.
	r := fakeAzoo(t, `case "$*" in
*"-j 2"*) echo "K: 1 states, 10 symbols, 3 reports (0.3/sym), active set 1.00" ;;
*) echo "K: 1 states, 10 symbols, 2 reports (0.2/sym), active set 1.00" ;;
esac
`)
	res := runWorkload(r, fakeWorkload, 0, false)
	if res.Failed < minReps || res.FailRatio <= 0 {
		t.Fatalf("failed %d of %d (ratio %v): every repetition of the mismatching run must count", res.Failed, res.Attempted, res.FailRatio)
	}
	if len(res.Cases[0].RunSamples) != 0 {
		t.Error("a run whose output check failed still contributed a timing")
	}
	line, _ := harnessLine(catalog.EndToEnd, res.Metrics, res.Attempted, res.Failed)
	if !strings.Contains(line, `"correct":false`) {
		t.Errorf("harness line reports a failed run as correct: %s", line)
	}
}

func TestNonZeroExitAndTimeoutCount(t *testing.T) {
	r := fakeAzoo(t, "echo boom >&2\nexit 3\n")
	res := runWorkload(r, fakeWorkload, time.Millisecond, false)
	if res.Failed != res.Attempted || res.FailRatio != 1 {
		t.Errorf("failed %d of %d: every non-zero exit must count", res.Failed, res.Attempted)
	}
}
