package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"automatazoo/internal/guard"
	"automatazoo/internal/report"
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

// TestCloseTruncatedWritesManifestAndPostmortem drives the trip-then-
// report path end to end: a budget trip through closeTruncated must write
// a manifest flagged truncated, naming the tripped budget, and linking a
// postmortem NDJSON dump that holds the flight-recorder contents.
func TestCloseTruncatedWritesManifestAndPostmortem(t *testing.T) {
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
	wantPM := rpt + ".postmortem.ndjson"
	if m.Postmortem != wantPM {
		t.Fatalf("manifest postmortem = %q, want %q", m.Postmortem, wantPM)
	}
	pm, rerr := os.ReadFile(wantPM)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, want := range []string{`"ev":"postmortem"`, `"reason":"trip"`, `"ev":"trip"`, `"ev":"registry"`} {
		if !strings.Contains(string(pm), want) {
			t.Errorf("postmortem missing %s:\n%s", want, pm)
		}
	}
}

func TestSetTruncatedNilSafe(t *testing.T) {
	var s *obsSession
	s.setTruncated(&guard.TripError{Budget: guard.BudgetDeadline})
	s.writePostmortem("trip", nil, nil)
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

// TestStallWatchdogEndToEnd is the acceptance test for the live-ops
// tentpole: an injected stall: fault parks a sim worker mid-run, the
// watchdog detects the silent heartbeat, dumps a flight-recorder
// postmortem with goroutine stacks, and trips the governor so the run
// unwinds as a "stalled" truncation linked from the manifest.
func TestStallWatchdogEndToEnd(t *testing.T) {
	dir := t.TempDir()
	rpt := filepath.Join(dir, "manifest.json")
	err := cmdRun([]string{
		"-bench", "Brill", "-scale", "0.01", "-input", "30000", "-j", "1",
		"-report", rpt,
		"-faults", "stall:sim.chunk:2",
		"-stall-after", "150ms",
	})
	trip := guard.AsTrip(err)
	if trip == nil {
		t.Fatalf("cmdRun returned %v, want a stall trip", err)
	}
	if trip.Budget != guard.BudgetStalled {
		t.Fatalf("tripped budget = %q, want stalled", trip.Budget)
	}

	m, rerr := report.ReadFile(rpt)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !m.Truncated || m.TrippedBudget != guard.BudgetStalled {
		t.Errorf("manifest: truncated=%v budget=%q", m.Truncated, m.TrippedBudget)
	}
	if m.Postmortem == "" {
		t.Fatal("manifest does not link a postmortem")
	}
	pm, rerr := os.ReadFile(m.Postmortem)
	if rerr != nil {
		t.Fatal(rerr)
	}
	body := string(pm)
	for _, want := range []string{`"reason":"stall"`, `"ev":"stall"`, `"ev":"budget"`, `"ev":"stacks"`} {
		if !strings.Contains(body, want) {
			t.Errorf("postmortem missing %s", want)
		}
	}
	if !strings.Contains(body, "goroutine") {
		t.Error("postmortem stacks do not look like a goroutine dump")
	}
	// Exit-code mapping: a stall is a truncation (exit 3).
	if exitCode(err) != exitTruncated {
		t.Errorf("exit code = %d, want %d", exitCode(err), exitTruncated)
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
