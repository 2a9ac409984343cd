package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/ckpt"
	"automatazoo/internal/guard"
	"automatazoo/internal/report"
	"automatazoo/internal/scan"
	"automatazoo/internal/stats"
	"automatazoo/internal/telemetry"
)

// captureStdout runs f with os.Stdout redirected into a pipe and returns
// what it printed alongside f's error.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	return capture(t, &os.Stdout, f)
}

// captureStderr is captureStdout for os.Stderr.
func captureStderr(t *testing.T, f func() error) (string, error) {
	t.Helper()
	return capture(t, &os.Stderr, f)
}

func capture(t *testing.T, file **os.File, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := *file
	*file = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	ferr := f()
	*file = saved
	w.Close()
	return <-out, ferr
}

// TestResumeIdenticalToStraightRun drives the CLI end to end: a
// checkpointed `azoo run` killed at its second save (crash:ckpt.save:2)
// and finished by `azoo resume` must print the same stdout and write the
// same manifest kernel row (seg_*/pf_* extras included) and attribution
// section as one uninterrupted run with the same checkpoint flags (the
// save grid shapes the seg_* accounting), and neither may leave a
// checkpoint behind. The dfa engine re-warms its cache from cold on
// resume (scan.Result.Cache), so only its symbols/reports/states line and
// row counts are compared.
func TestResumeIdenticalToStraightRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and scans a benchmark three times per engine shape")
	}
	for _, tc := range []struct {
		name string
		args []string
		cold bool // cache-dependent output is documented as cold on resume
	}{
		{"nfa-j1", []string{"-engine", "nfa", "-j", "1", "-segments", "1"}, false},
		{"nfa-j2-seg3", []string{"-engine", "nfa", "-j", "2", "-segments", "3"}, false},
		{"prefilter", []string{"-engine", "prefilter", "-j", "1", "-segments", "1"}, false},
		{"dfa-j1", []string{"-engine", "dfa", "-j", "1"}, true},
		{"dfa-j2-seg3", []string{"-engine", "dfa", "-j", "2", "-segments", "3"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r0, r1, r2 := filepath.Join(dir, "r0.json"), filepath.Join(dir, "r1.json"), filepath.Join(dir, "r2.json")
			ck0, ck := filepath.Join(dir, "straight.ckpt"), filepath.Join(dir, "run.ckpt")
			base := append([]string{"-bench", "Snort", "-scale", "0.02", "-input", "30000",
				"-checkpoint-interval", "4096"}, tc.args...)
			base = base[:len(base):len(base)] // each run appends its own tail

			want, err := captureStdout(t, func() error {
				return cmdRun(append(base, "-report", r0, "-checkpoint", ck0))
			})
			if err != nil {
				t.Fatalf("straight run: %v", err)
			}

			_, err = captureStdout(t, func() error {
				return cmdRun(append(base, "-report", r1, "-checkpoint", ck, "-faults", "crash:ckpt.save:2"))
			})
			if trip := guard.AsTrip(err); trip == nil || trip.Budget != guard.BudgetCrashed {
				t.Fatalf("crashed run: want an injected crash trip, got %v", err)
			}
			if exitCode(err) != exitTruncated {
				t.Errorf("crashed run: exit %d, want %d (truncated)", exitCode(err), exitTruncated)
			}
			if _, err := os.Stat(ck); err != nil {
				t.Fatalf("crashed run left no checkpoint: %v", err)
			}

			got, err := captureStdout(t, func() error { return cmdResume([]string{"-report", r2, ck}) })
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			for _, f := range []string{ck0, ck0 + ".prev", ck, ck + ".prev"} {
				if _, err := os.Stat(f); !os.IsNotExist(err) {
					t.Errorf("completed run left %s behind (stat err %v)", f, err)
				}
			}

			m0, err := report.ReadFile(r0)
			if err != nil {
				t.Fatal(err)
			}
			m2, err := report.ReadFile(r2)
			if err != nil {
				t.Fatal(err)
			}
			if len(m0.Kernels) != 1 || len(m2.Kernels) != 1 {
				t.Fatalf("kernel rows: straight %d, resumed %d, want 1 each", len(m0.Kernels), len(m2.Kernels))
			}
			k0, k2 := m0.Kernels[0], m2.Kernels[0]
			if m2.Truncated || m2.Command != m0.Command || !reflect.DeepEqual(m2.Suite, m0.Suite) {
				t.Errorf("resumed manifest header: truncated=%v command=%q suite=%v, straight command=%q suite=%v",
					m2.Truncated, m2.Command, m2.Suite, m0.Command, m0.Suite)
			}
			if tc.cold {
				want, _, _ = strings.Cut(want, "DFA states")
				got, _, _ = strings.Cut(got, "DFA states")
				k0 = report.KernelRow{Name: k0.Name, States: k0.States, Symbols: k0.Symbols, Reports: k0.Reports}
				k2 = report.KernelRow{Name: k2.Name, States: k2.States, Symbols: k2.Symbols, Reports: k2.Reports}
			} else if !reflect.DeepEqual(m2.Attribution, m0.Attribution) || len(m0.Attribution) == 0 {
				t.Errorf("attribution differs (or is empty):\nstraight %+v\nresumed  %+v", m0.Attribution, m2.Attribution)
			}
			if got != want || want == "" {
				t.Errorf("stdout differs:\nstraight %q\nresumed  %q", want, got)
			}
			if !reflect.DeepEqual(k2, k0) {
				t.Errorf("manifest kernel row differs:\nstraight %+v\nresumed  %+v", k0, k2)
			}
		})
	}
}

// TestResumeProgressTotalCoversOnlyRemainingStreams resumes a three-stream
// scan from a cursor inside the SECOND stream and requires the progress
// tracker to finish with done == total: the total credited at resume must
// be the tail of the in-flight stream plus the streams after it, not the
// streams already finished before the checkpoint (which never heartbeat
// again, so counting them leaves the ETA short of converging).
func TestResumeProgressTotalCoversOnlyRemainingStreams(t *testing.T) {
	bld := automata.NewBuilder()
	s0 := bld.AddSTE(charset.Single('a'), automata.StartAllInput)
	s1 := bld.AddSTE(charset.Single('b'), automata.StartNone)
	bld.AddEdge(s0, s1)
	bld.SetReport(s1, 1)
	a, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	const streamLen, resumeAt = 2 * ckpt.ChunkAlign, ckpt.ChunkAlign
	stream := bytes.Repeat([]byte("abxx"), streamLen/4)
	streams := [][]byte{stream, stream, stream}
	const wantTotal = (streamLen - resumeAt) + streamLen

	for _, name := range []string{"nfa", "dfa"} {
		t.Run(name, func(t *testing.T) {
			newEngine, err := scan.Factory(name)
			if err != nil {
				t.Fatal(err)
			}
			e, err := newEngine(a)
			if err != nil {
				t.Fatal(err)
			}
			st, err := e.RunChecked(stream[:resumeAt])
			if err != nil {
				t.Fatal(err)
			}
			start := &ckpt.Checkpoint{
				Sim:    e.(ckpt.Engine).CaptureState(),
				Cursor: ckpt.Cursor{Stream: 1, Offset: resumeAt, Sim: &st},
			}
			prog := telemetry.NewProgress()
			_, err = scan.Run(context.Background(), a, streams, scan.Spec{
				Hooks:   stats.Hooks{Progress: prog.Tracker(name), NewEngine: newEngine},
				Workers: 1, Segments: 1, Start: start,
				Saver: &ckpt.Saver{Path: filepath.Join(t.TempDir(), "ck"), Interval: ckpt.ChunkAlign},
			})
			if err != nil {
				t.Fatal(err)
			}
			snap := prog.Snapshot()[0]
			if snap.Bytes != wantTotal || snap.TotalBytes != wantTotal {
				t.Errorf("resumed from stream 1 offset %d: done %d, total %d; both must be %d",
					resumeAt, snap.Bytes, snap.TotalBytes, wantTotal)
			}
		})
	}
}

// TestRunCheckpointedDFAPrintsPlainLines: checkpointing changes where a
// run saves, never what it prints. A checkpointed multi-stream dfa run —
// at -j 1, and at -j 2, which a checkpoint now accepts — prints exactly
// the uninterrupted -j 1 lines, transition-cache line included.
func TestRunCheckpointedDFAPrintsPlainLines(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and scans a benchmark three times")
	}
	base := []string{"-engine", "dfa", "-bench", "Random Forest B", "-scale", "0.02", "-input", "20000"}
	run := func(extra ...string) string {
		t.Helper()
		out, err := captureStdout(t, func() error { return cmdRun(append(append([]string(nil), base...), extra...)) })
		if err != nil {
			t.Fatalf("run %v: %v", extra, err)
		}
		return out
	}
	want := run("-j", "1")
	if !strings.Contains(want, "transition cache") {
		t.Fatalf("no cache line in %q", want)
	}
	for _, extra := range [][]string{
		{"-j", "1", "-checkpoint", filepath.Join(t.TempDir(), "j1.ckpt")},
		{"-j", "2", "-checkpoint", filepath.Join(t.TempDir(), "j2.ckpt")},
	} {
		if got := run(extra...); got != want {
			t.Errorf("run %v:\n got %q\nwant %q", extra, got, want)
		}
	}
}

// TestDFAGaugesSumOverEngines: the dfa.* gauges describe the whole run —
// at -j 2 the sum over the slice engines, not the last one to flush — so
// -metrics agrees at -j 1 and -j 2 and with the printed DFA-state count.
func TestDFAGaugesSumOverEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and scans a benchmark twice")
	}
	var gauges []map[string]int64
	for _, j := range []string{"1", "2"} {
		metrics := filepath.Join(t.TempDir(), "m.json")
		out, err := captureStdout(t, func() error {
			return cmdRun([]string{"-engine", "dfa", "-bench", "Snort", "-scale", "0.02", "-input", "30000",
				"-j", j, "-metrics", metrics})
		})
		if err != nil {
			t.Fatalf("-j %s: %v", j, err)
		}
		raw, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatal(err)
		}
		var snap telemetry.Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatal(err)
		}
		var states int64
		if _, err := fmt.Sscanf(out[strings.Index(out, "reports, ")+len("reports, "):], "%d DFA states", &states); err != nil {
			t.Fatalf("-j %s: no DFA-state count in %q: %v", j, out, err)
		}
		if got := snap.Gauges["dfa.states"]; got != states {
			t.Errorf("-j %s: dfa.states gauge %d, printed %d", j, got, states)
		}
		gauges = append(gauges, map[string]int64{
			"dfa.states":      snap.Gauges["dfa.states"],
			"dfa.cache_bytes": snap.Gauges["dfa.cache_bytes"],
			"dfa.fallbacks":   snap.Gauges["dfa.fallbacks"],
		})
	}
	if !reflect.DeepEqual(gauges[0], gauges[1]) {
		t.Errorf("dfa gauges differ: -j 1 %v, -j 2 %v", gauges[0], gauges[1])
	}
}
