package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"automatazoo/internal/guard"
	"automatazoo/internal/parallel"
	"automatazoo/internal/report"
	"automatazoo/internal/telemetry"
)

// newTestSession builds an obsSession through the real flag plumbing.
func newTestSession(t *testing.T, args ...string) *obsSession {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tf := telemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	sess, err := tf.session()
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestCloseTruncatedWritesManifest drives the trip-then-report path: a
// budget trip through closeTruncated must write a manifest flagged
// truncated and naming the tripped budget, and nothing beside it.
func TestCloseTruncatedWritesManifest(t *testing.T) {
	dir := t.TempDir()
	rpt := filepath.Join(dir, "manifest.json")
	sess := newTestSession(t, "-report", rpt)

	g := guard.New(context.Background(), guard.Budget{MaxInputBytes: 10})
	sess.Governor = g
	sess.setReport("run", 1, map[string]string{"scale": "0.01"}, nil)

	err := g.Boundary(guard.SiteSimChunk, 100) // trips input-bytes
	if guard.AsTrip(err) == nil {
		t.Fatalf("boundary did not trip: %v", err)
	}
	if got := sess.closeTruncated(err); got != err {
		t.Fatalf("closeTruncated must return the original error, got %v", got)
	}

	m, rerr := report.ReadFile(rpt)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !m.Truncated || m.TrippedBudget != guard.BudgetInputBytes {
		t.Errorf("manifest truncation: %v %q", m.Truncated, m.TrippedBudget)
	}
	if m.Metrics == nil {
		t.Error("truncated manifest carries no metrics snapshot")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("the trip left %d files, want the manifest alone", len(entries))
	}
}

func TestSetTruncatedNilSafe(t *testing.T) {
	var s *obsSession
	s.setTruncated(&guard.TripError{Budget: guard.BudgetDeadline})
	if err := s.closeTruncated(nil); err != nil {
		t.Fatal(err)
	}
	// A session without -report writes nothing and flags nothing.
	sess := newTestSession(t)
	sess.setTruncated(&guard.TripError{Budget: guard.BudgetDeadline})
	if !sess.truncated || sess.trippedBudget != guard.BudgetDeadline {
		t.Error("setTruncated did not record the trip")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStallWatchdogEndToEnd: an injected stall: fault parks a sim worker
// mid-run, the watchdog detects the silent heartbeat, names the quiet
// kernel and prints every goroutine's stack to stderr, and trips the
// governor so the run unwinds as a "stalled" truncation (exit 3) with a
// truncated manifest.
func TestStallWatchdogEndToEnd(t *testing.T) {
	dir := t.TempDir()
	rpt := filepath.Join(dir, "manifest.json")
	stderr, err := captureStderr(t, func() error {
		_, err := captureStdout(t, func() error {
			return cmdRun([]string{
				"-bench", "Brill", "-scale", "0.01", "-input", "30000", "-j", "1",
				"-report", rpt,
				"-faults", "stall:sim.chunk:2",
				"-stall-after", "150ms",
			})
		})
		return err
	})
	trip := guard.AsTrip(err)
	if trip == nil {
		t.Fatalf("cmdRun returned %v, want a stall trip", err)
	}
	if trip.Budget != guard.BudgetStalled {
		t.Fatalf("tripped budget = %q, want stalled", trip.Budget)
	}
	if exitCode(err) != exitTruncated {
		t.Errorf("exit code = %d, want %d", exitCode(err), exitTruncated)
	}

	m, rerr := report.ReadFile(rpt)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !m.Truncated || m.TrippedBudget != guard.BudgetStalled {
		t.Errorf("manifest: truncated=%v budget=%q", m.Truncated, m.TrippedBudget)
	}
	if !strings.Contains(stderr, `azoo: stall: "Brill" produced no heartbeat`) {
		t.Errorf("stderr does not name the stalled kernel:\n%s", stderr)
	}
	if !strings.Contains(stderr, "goroutine ") || !strings.Contains(stderr, "[running]") {
		t.Errorf("stderr carries no goroutine dump:\n%s", stderr)
	}
}

// TestWorkerPanicEndToEnd: an injected panic in a segment task, or in
// the engine of a whole-automaton scan, is recovered by parallel.ForEach.
// The run fails (exit 1), still writes its (not truncated) manifest, and
// prints the panicking goroutine's stack to stderr.
func TestWorkerPanicEndToEnd(t *testing.T) {
	for _, tc := range []struct{ j, segments, fault string }{
		{"2", "3", "panic:segment.spec:2"},
		{"1", "1", "panic:sim.chunk:2"},
	} {
		t.Run("j"+tc.j+"-s"+tc.segments, func(t *testing.T) {
			rpt := filepath.Join(t.TempDir(), "manifest.json")
			stderr, err := captureStderr(t, func() error {
				_, err := captureStdout(t, func() error {
					return cmdRun([]string{
						"-bench", "Snort", "-scale", "0.01", "-input", "30000", "-j", tc.j, "-segments", tc.segments,
						"-report", rpt,
						"-faults", tc.fault,
					})
				})
				return err
			})
			var pe *parallel.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("cmdRun returned %v, want a worker panic", err)
			}
			if _, ok := pe.Value.(guard.InjectedPanic); !ok {
				t.Fatalf("panic value %v is not the injected fault", pe.Value)
			}
			if exitCode(err) != exitRuntime {
				t.Errorf("exit code = %d, want %d", exitCode(err), exitRuntime)
			}

			m, rerr := report.ReadFile(rpt)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if m.Truncated || len(m.Kernels) != 1 || m.Kernels[0].Name != "Snort" {
				t.Errorf("manifest: truncated=%v kernels=%+v", m.Truncated, m.Kernels)
			}
			if !strings.Contains(stderr, "azoo: stack of panicked item") ||
				!strings.Contains(stderr, "goroutine ") || !strings.Contains(stderr, "guard.(*Governor).Boundary") {
				t.Errorf("stderr carries no panic stack:\n%s", stderr)
			}
		})
	}
}

// TestRunTraceIdenticalAcrossWorkers: an unsegmented traced run writes the
// same trace file at -j 1 and -j 2. Component slices would hand the
// tracer slice-local state IDs in a scheduling-dependent order, so
// scan.Run keeps a traced run on one whole-automaton engine.
func TestRunTraceIdenticalAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	trace := func(j string) []byte {
		path := filepath.Join(dir, "j"+j+".ndjson")
		_, err := captureStdout(t, func() error {
			return cmdRun([]string{"-bench", "Snort", "-scale", "0.01", "-input", "20000",
				"-j", j, "-segments", "1", "-trace", path})
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	j1, j2 := trace("1"), trace("2")
	if !strings.Contains(string(j1), `"ev":"activate"`) {
		t.Fatal("test premise broken: the trace records no activations")
	}
	if string(j1) != string(j2) {
		t.Errorf("trace at -j 2 (%d bytes) differs from -j 1 (%d bytes)", len(j2), len(j1))
	}
}

// TestRunMetricsIdenticalAcrossLayouts: a segmented run writes the same
// -metrics file at -j 1 and -j 2, and agrees with the unsegmented -j 1
// run on every entry that describes the stream. The sim.* and segment.*
// entries describe engine work (segment.Hooks.Registry), which segments
// add to by re-scanning their warmup windows. Hamming 18x3 steps most of
// its stream on the bitset frontier, Snort on the list. The file has no
// timing fields.
func TestRunMetricsIdenticalAcrossLayouts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and scans two benchmarks three times each")
	}
	for _, bench := range []string{"Hamming 18x3", "Snort"} {
		t.Run(bench, func(t *testing.T) {
			dir := t.TempDir()
			metrics := func(name string, args ...string) []byte {
				path := filepath.Join(dir, name+".json")
				_, err := captureStdout(t, func() error {
					return cmdRun(append([]string{"-bench", bench, "-scale", "0.02", "-input", "20000", "-metrics", path}, args...))
				})
				if err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			seq := metrics("j1", "-j", "1", "-segments", "1")
			seg1, seg2 := metrics("j1s3", "-j", "1", "-segments", "3"), metrics("j2s3", "-j", "2", "-segments", "3")
			if string(seg1) != string(seg2) {
				t.Errorf("-segments 3: -metrics at -j 2 differs from -j 1:\n%s\n%s", seg2, seg1)
			}
			stream := func(raw []byte) telemetry.Snapshot {
				var s telemetry.Snapshot
				if err := json.Unmarshal(raw, &s); err != nil {
					t.Fatal(err)
				}
				work := func(name string) bool {
					return strings.HasPrefix(name, "sim.") || strings.HasPrefix(name, "segment.")
				}
				maps.DeleteFunc(s.Counters, func(k string, _ int64) bool { return work(k) })
				maps.DeleteFunc(s.Gauges, func(k string, _ int64) bool { return work(k) })
				maps.DeleteFunc(s.Histograms, func(k string, _ telemetry.HistogramSnapshot) bool { return work(k) })
				return s
			}
			want, got := stream(seq), stream(seg2)
			if len(want.Counters) == 0 {
				t.Fatal("test premise broken: no stream counters left to compare")
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("stream entries of -metrics differ:\n-j 1: %+v\n-j 2 -segments 3: %+v", want, got)
			}
		})
	}
}
