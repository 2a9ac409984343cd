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

// `azoo profile` honors the live-ops flags it registers: its scan runs
// under the session's per-kernel hooks with the watchdog armed, so a
// -stall-after far below the watchdog's 10ms poll trips the run as a
// stalled truncation.
func TestProfileArmsStallWatchdog(t *testing.T) {
	err := cmdProfile([]string{"snort", "-scale", "0.01", "-input", "3000000", "-stall-after", "1ns"})
	trip := guard.AsTrip(err)
	if trip == nil || trip.Budget != guard.BudgetStalled {
		t.Fatalf("cmdProfile returned %v, want a stall trip", err)
	}
	if exitCode(err) != exitTruncated {
		t.Errorf("exit code = %d, want %d", exitCode(err), exitTruncated)
	}
}
