package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"automatazoo/internal/difftest"
)

// The retired perf-gate commands are plain unknown commands now: usage on
// stderr, exit 2.
func TestRetiredCommandsAreUsageErrors(t *testing.T) {
	saved := os.Args
	defer func() { os.Args = saved }()
	// The second name is spelled in halves so that grepping the tree for it
	// finds only a real comeback.
	for _, name := range []string{"bench", "bench" + "diff"} {
		os.Args = []string{"azoo", name, "old.json", "new.json"}
		if code := run(); code != exitUsage {
			t.Errorf("azoo %s: exit %d, want %d (usage)", name, code, exitUsage)
		}
	}
}

// The retired -postmortem flag is an unknown flag now: run's flag set
// rejects it with usage on stderr and exit 2 before any scan. The flag
// set exits the process itself, so the command runs in a child copy of
// the test binary (the helper-process idiom of os/exec's own tests).
func TestRetiredPostmortemFlagIsUsageError(t *testing.T) {
	if os.Getenv("AZOO_TEST_HELPER_PROCESS") == "1" {
		os.Args = []string{"azoo", "run", "-bench", "Snort", "-scale", "0.01", "-input", "4096", "-postmortem", "x"}
		os.Exit(run())
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRetiredPostmortemFlagIsUsageError$")
	cmd.Env = append(os.Environ(), "AZOO_TEST_HELPER_PROCESS=1")
	cmd.Dir = t.TempDir()
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != exitUsage {
		t.Fatalf("azoo run -postmortem x: %v, want exit %d (usage)\n%s", err, exitUsage, out)
	}
	if !strings.Contains(string(out), "flag provided but not defined: -postmortem") {
		t.Errorf("stderr does not name the unknown flag:\n%s", out)
	}
}

// difftest rejects what it used to replace silently: a non-positive
// -seeds, -states or -input, and any positional argument, are usage
// errors. A small valid soak parses and lists every cell as having run.
func TestDifftestFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-seeds", "0"}, {"-seeds", "-1"}, {"-states", "0"}, {"-input", "-7"}, {"-seeds", "3", "stray"},
	} {
		if _, err := captureStdout(t, func() error { return cmdDifftest(args) }); exitCode(err) != exitUsage {
			t.Errorf("difftest %v: exit %d (%v), want %d (usage)", args, exitCode(err), err, exitUsage)
		}
	}

	out, err := captureStdout(t, func() error { return cmdDifftest([]string{"-seeds", "3", "-json"}) })
	if err != nil {
		t.Fatal(err)
	}
	var res difftest.SoakResult
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	// 5 engines × 2 transforms × 4 modes, 4 crash-resume cells, bitnfa.
	if len(res.Cells) != 45 || res.Seeds != 3 || len(res.Divergences) != 0 {
		t.Errorf("soak: %d cells, %d seeds, %d divergences; want 45, 3, 0", len(res.Cells), res.Seeds, len(res.Divergences))
	}
	for name, st := range res.Cells {
		if st.Runs == 0 {
			t.Errorf("cell %s never ran", name)
		}
	}
}
