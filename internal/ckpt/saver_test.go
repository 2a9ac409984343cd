package ckpt

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"automatazoo/internal/guard"
	"automatazoo/internal/segment"
	"automatazoo/internal/telemetry"
)

func testSaver(t *testing.T, gov *guard.Governor, reg *telemetry.Registry) *Saver {
	t.Helper()
	c := fullCheckpoint()
	return &Saver{
		Path:     filepath.Join(t.TempDir(), "ck"),
		Interval: ChunkAlign,
		Capture:  func() (*Checkpoint, error) { return c, nil },
		Hooks:    segment.Hooks{Governor: gov, Registry: reg},
	}
}

func govWithFaults(t *testing.T, spec string) *guard.Governor {
	t.Helper()
	inj, err := guard.ParseInjector(spec, 1)
	if err != nil {
		t.Fatalf("ParseInjector(%q): %v", spec, err)
	}
	g := guard.New(context.Background(), guard.Budget{})
	g.SetInjector(inj)
	return g
}

// Two transient write failures: the save retries with exponential
// backoff and succeeds on the third attempt; nothing degrades.
func TestSaverRetriesTransientWriteFailures(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := testSaver(t, govWithFaults(t, "ioerr:ckpt.write:1,ioerr:ckpt.write:2"), reg)
	var slept []time.Duration
	s.Sleep = func(d time.Duration) { slept = append(slept, d) }

	if err := s.Save("periodic"); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if s.Disabled() {
		t.Fatal("saver degraded on transient failures")
	}
	if got := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}; !equalDurations(slept, got) {
		t.Errorf("backoff sleeps = %v, want %v", slept, got)
	}
	if n := reg.Snapshot().Counters["ckpt.retries"]; n != 2 {
		t.Errorf("ckpt.retries = %d, want 2", n)
	}
	if _, _, err := Load(s.Path); err != nil {
		t.Errorf("saved checkpoint does not load: %v", err)
	}
}

// Backoff doubles from 10ms and caps at 500ms.
func TestSaverBackoffCaps(t *testing.T) {
	spec := make([]string, 8)
	for i := range spec {
		spec[i] = "ioerr:ckpt.write:" + string(rune('1'+i))
	}
	s := testSaver(t, govWithFaults(t, strings.Join(spec, ",")), nil)
	s.MaxRetries = 8
	var slept []time.Duration
	s.Sleep = func(d time.Duration) { slept = append(slept, d) }
	if err := s.Save("periodic"); err != nil {
		t.Fatalf("Save: %v", err)
	}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 160 * time.Millisecond, 320 * time.Millisecond,
		500 * time.Millisecond, 500 * time.Millisecond,
	}
	if !equalDurations(slept, want) {
		t.Errorf("backoff sleeps = %v, want %v", slept, want)
	}
}

// Persistent write failure: the saver warns once, flips sticky-disabled,
// and the scan continues — Save returns nil, later calls are no-ops.
func TestSaverStickyDisableOnPersistentFailure(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := testSaver(t, govWithFaults(t, "ioerr:ckpt.write:1,ioerr:ckpt.write:2,ioerr:ckpt.write:3"), reg)
	s.MaxRetries = 2
	s.Sleep = func(time.Duration) {}
	var warnings []string
	s.Warn = func(msg string) { warnings = append(warnings, msg) }

	if err := s.Save("periodic"); err != nil {
		t.Fatalf("Save after persistent failure must degrade, not error: %v", err)
	}
	if !s.Disabled() {
		t.Fatal("saver not disabled after exhausting retries")
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "WITHOUT crash safety") {
		t.Errorf("warnings = %v, want one sticky warning", warnings)
	}
	if g := reg.Snapshot().Gauges["ckpt.disabled"]; g != 1 {
		t.Errorf("ckpt.disabled gauge = %d, want 1", g)
	}
	// Disabled saver: no further writes, no further warnings, no errors.
	if err := s.Boundary(10 * ChunkAlign); err != nil {
		t.Errorf("Boundary on disabled saver: %v", err)
	}
	if err := s.Save("periodic"); err != nil {
		t.Errorf("Save on disabled saver: %v", err)
	}
	s.SaveFinal("trip")
	if len(warnings) != 1 {
		t.Errorf("disabled saver warned again: %v", warnings)
	}
	if _, err := os.Stat(s.Path); !os.IsNotExist(err) {
		t.Errorf("disabled saver left a checkpoint file")
	}
}

// A crash fault fires INSTEAD of saving: no file, and — the counter-
// identity invariant — no ckpt.saves increment, so the durable registry
// never counts a save that did not complete.
func TestSaverCrashFaultAbortsBeforeSaving(t *testing.T) {
	reg := telemetry.NewRegistry()
	gov := govWithFaults(t, "crash:ckpt.save:1")
	s := testSaver(t, gov, reg)

	err := s.Save("periodic")
	if trip := guard.AsTrip(err); trip == nil || trip.Budget != guard.BudgetCrashed {
		t.Fatalf("Save under crash fault: err=%v, want BudgetCrashed trip", err)
	}
	if n := reg.Snapshot().Counters["ckpt.saves"]; n != 0 {
		t.Errorf("ckpt.saves = %d after crash, want 0", n)
	}
	if _, err := os.Stat(s.Path); !os.IsNotExist(err) {
		t.Errorf("crash fault left a checkpoint file")
	}
	// SaveFinal honors the crashed state: a dead process writes nothing.
	s.SaveFinal("trip")
	if _, err := os.Stat(s.Path); !os.IsNotExist(err) {
		t.Errorf("SaveFinal wrote despite BudgetCrashed trip")
	}
}

// Boundary accumulates scanned bytes and saves every Interval.
func TestSaverBoundaryPacing(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := testSaver(t, nil, reg)
	s.Interval = 2 * ChunkAlign
	for i := 0; i < 6; i++ {
		if err := s.Boundary(ChunkAlign); err != nil {
			t.Fatalf("Boundary: %v", err)
		}
	}
	if n := reg.Snapshot().Counters["ckpt.saves"]; n != 3 {
		t.Errorf("ckpt.saves = %d after 6 chunks at interval 2, want 3", n)
	}
	// ResetInterval restarts pacing mid-interval.
	s.Boundary(ChunkAlign)
	s.ResetInterval()
	s.Boundary(ChunkAlign)
	if n := reg.Snapshot().Counters["ckpt.saves"]; n != 3 {
		t.Errorf("ckpt.saves = %d after ResetInterval, want still 3", n)
	}
	// Rotation: the second and later saves keep a previous generation.
	if _, err := os.Stat(s.Path + PrevSuffix); err != nil {
		t.Errorf("no previous generation after 3 saves: %v", err)
	}
}

func equalDurations(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
