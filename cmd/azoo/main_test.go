package main

import (
	"os"
	"testing"
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
