package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"automatazoo/internal/guard"
	"automatazoo/internal/report"
)

// TestRunTripIdenticalAcrossSegments drives `azoo run` end to end with a
// governor budget that trips mid-scan: at every -segments value the run
// must fail with the same fault class, unwind every segment worker, and
// still write a truncated-but-valid -report manifest carrying the
// partial work — the same contract the worker pool honors across -j.
func TestRunTripIdenticalAcrossSegments(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a benchmark per segment count")
	}
	const inputBytes = 30_000
	faults := []struct {
		name string
		flag []string
		want string // TripError.Budget
	}{
		{"budget", []string{"-max-input-bytes", "8192"}, guard.BudgetInputBytes},
		// An injected trip at the 2nd sim chunk boundary: hit counters are
		// global across segment workers, so the class cannot depend on how
		// the stream was split.
		{"injected", []string{"-faults", "trip:sim.chunk:2"}, guard.BudgetInjected},
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			for _, segs := range []int{1, 3, 5} {
				rpt := filepath.Join(t.TempDir(), "run.json")
				args := append([]string{
					"-bench", "Brill", "-scale", "0.01",
					"-input", strconv.Itoa(inputBytes),
					"-j", "2", "-segments", strconv.Itoa(segs),
					"-report", rpt,
				}, f.flag...)
				err := cmdRun(args)
				trip := guard.AsTrip(err)
				if trip == nil {
					t.Fatalf("-segments %d: want a governor trip, got %v", segs, err)
				}
				if trip.Budget != f.want {
					t.Errorf("-segments %d: fault class %q, want %q", segs, trip.Budget, f.want)
				}
				m, rerr := report.ReadFile(rpt)
				if rerr != nil {
					t.Fatalf("-segments %d: truncated manifest unreadable: %v", segs, rerr)
				}
				if !m.Truncated || m.TrippedBudget != f.want {
					t.Errorf("-segments %d: manifest truncated=%v budget=%q, want %q",
						segs, m.Truncated, m.TrippedBudget, f.want)
				}
				if m.Suite["segments"] != strconv.Itoa(segs) {
					t.Errorf("-segments %d: manifest records segments=%q", segs, m.Suite["segments"])
				}
				if len(m.Kernels) != 1 {
					t.Fatalf("-segments %d: kernel rows = %d", segs, len(m.Kernels))
				}
				if got := m.Kernels[0].Symbols; got >= inputBytes {
					t.Errorf("-segments %d: truncated run reports %d symbols, want < %d",
						segs, got, inputBytes)
				}
			}
		})
	}
}

// TestRunSegmentedManifestCarriesStitchExtras: a successful explicitly
// segmented run records the speculation accounting in the kernel row's
// extras (and only there — stdout identity is asserted suite-wide by
// TestRunOutputByteIdenticalAcrossWorkers at the repo root).
func TestRunSegmentedManifestCarriesStitchExtras(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and scans a benchmark")
	}
	rpt := filepath.Join(t.TempDir(), "run.json")
	err := cmdRun([]string{
		"-bench", "Brill", "-scale", "0.01", "-input", "30000",
		"-j", "2", "-segments", "3", "-report", rpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := report.ReadFile(rpt)
	if err != nil {
		t.Fatal(err)
	}
	extra := m.Kernels[0].Extra
	if extra["seg_segments"] != 3 {
		t.Fatalf("seg_segments = %v, want 3 (extras: %v)", extra["seg_segments"], extra)
	}
	for _, k := range []string{"seg_speculated", "seg_committed", "seg_replayed", "seg_warmup_bytes", "seg_replay_bytes"} {
		if _, ok := extra[k]; !ok {
			t.Errorf("missing stitch extra %q", k)
		}
	}
	if fmt.Sprintf("%v", m.Suite["segments"]) != "3" {
		t.Errorf("suite segments = %q", m.Suite["segments"])
	}
}

// TestCacheBudgetedRunIdenticalAcrossWorkers: a dfa run under a cache
// budget prints the same DFA-state, fallback and hit-rate line at any -j.
// Component slices would share the one governor and race for its cache
// bytes, so which component is refused first would vary from run to run;
// scan.Run keeps a cache-budgeted run on one engine.
func TestCacheBudgetedRunIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and scans a mesh kernel four times")
	}
	run := func(j, segs string) string {
		out, err := captureStdout(t, func() error {
			return cmdRun([]string{"-bench", "Hamming 22x5", "-engine", "dfa", "-scale", "0.05",
				"-input", "32768", "-j", j, "-segments", segs, "-max-cache-mb", "1"})
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run("1", "1")
	if strings.Contains(want, " 0 fallbacks") {
		t.Fatalf("test premise broken: the budget degrades nothing:\n%s", want)
	}
	for i := 0; i < 3; i++ {
		if got := run("2", "3"); got != want {
			t.Errorf("-j 2 run %d:\n%s\nwant (-j 1):\n%s", i, got, want)
		}
	}
}
