package main

import (
	"encoding/json"
	"os"
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
	// 6 engines × 2 transforms × 4 modes, 3 crash-resume cells, bitnfa.
	if len(res.Cells) != 52 || res.Seeds != 3 || len(res.Divergences) != 0 {
		t.Errorf("soak: %d cells, %d seeds, %d divergences; want 52, 3, 0", len(res.Cells), res.Seeds, len(res.Divergences))
	}
	for name, st := range res.Cells {
		if st.Runs == 0 {
			t.Errorf("cell %s never ran", name)
		}
	}
}
